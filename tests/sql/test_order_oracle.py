"""Differential test of ORDER BY / LIMIT / OFFSET against stdlib sqlite3.

Second slice of the ROADMAP's independent oracle, beside
``test_expr_oracle.py``: whole statements, ordering only.  Hypothesis
generates ``SELECT ... [WHERE ...] ORDER BY ... LIMIT ... OFFSET ...``
over a small table of int / float / text / NULL columns; the row lists
of the central executor and of a ``QueryService`` (where the statement
runs as a pushed top-k over three nodes) must equal sqlite's.

SQL leaves the order of tied rows unspecified, so every generated
ORDER BY ends in the unique key and only total orders are compared
(tie order is this engine's own promise, held by
``tests/properties/test_topk_properties.py``).  NULLs sort last here in
both directions; for sqlite, whose NULLs sort first ascending, each
term ``e`` is spelled ``(e IS NULL), e``.

Where the two engines legitimately differ, the generator leaves the
construct out; every such exclusion is an entry in ``DIALECT_SKIPS``.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig, CostModel
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable
from repro.state.rows import live_row

#: Constructs the generator leaves out, and why the engines disagree on
#: them.  Remove an entry and the generator produces the construct.
DIALECT_SKIPS = {
    "nan":
        "NaN: sqlite stores it as NULL (and sorts it there); here it is a "
        "float that sorts above every number, as in PostgreSQL "
        "(tests/query/test_pushdown.py)",
    "cross-type-column":
        "a column holding both numbers and text: sqlite orders by storage "
        "class (every number < every text); we raise 'cannot compare'",
    "integer-division":
        "`/` and `%` in a term: sqlite truncates and yields NULL on a zero "
        "divisor; we divide true and raise (see test_expr_oracle.py)",
}

FLOATS = [-1.5, 0.0, 0.5, 2.0]
if "nan" not in DIALECT_SKIPS:
    FLOATS.append(float("nan"))
TEXTS = ["", "a", "ab", "b", "B"]
NUMBERS = st.integers(-2, 2) | st.sampled_from(FLOATS)
VALUES = st.fixed_dictionaries({
    "a": st.none() | st.integers(-2, 2),
    "b": st.none() | st.integers(0, 1),
    "f": st.none() | st.sampled_from(FLOATS),
    "n": st.none() | NUMBERS,  # ints and floats side by side
    "s": st.none() | (
        st.sampled_from(TEXTS)
        if "cross-type-column" in DIALECT_SKIPS
        else st.sampled_from(TEXTS) | st.integers(-2, 2)
    ),
})
TERMS = ["a", "b", "f", "n", "s", "a + b", "-n", "a * f", "LENGTH(s)",
         "COALESCE(a, b)", "UPPER(s)"]
if "integer-division" not in DIALECT_SKIPS:
    TERMS += ["a / b", "a % 2"]
FILTERS = [None, "a < 1", "s IS NOT NULL", "b = 1 OR f > 0"]


@st.composite
def statements(draw):
    """``(ours, sqlite's)`` spelling of one generated statement."""
    terms = draw(st.lists(
        st.tuples(st.sampled_from(TERMS), st.booleans()), max_size=3
    ))
    terms.append(("key", draw(st.booleans())))  # makes the order total
    head = "SELECT key, a, s FROM t"
    where = draw(st.sampled_from(FILTERS))
    if where is not None:
        head += f" WHERE {where}"
    tail = f" LIMIT {draw(st.integers(0, 12))}"
    offset = draw(st.none() | st.integers(0, 4))
    if offset is not None:
        tail += f" OFFSET {offset}"
    ours = ", ".join(
        term + (" DESC" if descending else "")
        for term, descending in terms
    )
    theirs = ", ".join(
        f"({term}) IS NULL, {term}" + (" DESC" if descending else "")
        for term, descending in terms
    )
    return (f"{head} ORDER BY {ours}{tail}",
            f"{head} ORDER BY {theirs}{tail}")


CONNECTION = sqlite3.connect(":memory:")
# No declared types: no column affinity, so sqlite never coerces.
CONNECTION.execute("CREATE TABLE t (key, a, b, f, n, s)")


def sqlite_rows(sql: str, values: list[dict]) -> list[tuple]:
    CONNECTION.execute("DELETE FROM t")
    CONNECTION.executemany(
        "INSERT INTO t VALUES (:key, :a, :b, :f, :n, :s)",
        [{"key": key, **value} for key, value in enumerate(values)],
    )
    return CONNECTION.execute(sql).fetchall()


def central_rows(sql: str, values: list[dict]) -> list[tuple]:
    catalog = DictCatalog({"t": ListTable("t", tuple(
        live_row(key, value) for key, value in enumerate(values)
    ))})
    return execute_select(parse(sql), catalog, EvalContext()).tuples()


def service_rows(sql: str, values: list[dict], pushdown: bool = True,
                 costs: CostModel | None = None) -> list[tuple]:
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1),
                      costs=costs)
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate(values):
        imap.put(key, value)
    return QueryService(env, pushdown=pushdown).execute(sql).result.tuples()


@settings(max_examples=200, deadline=None)
@given(statements(), st.lists(VALUES, max_size=12))
def test_ordered_rows_agree_with_sqlite(statement, values):
    ours, theirs = statement
    expected = sqlite_rows(theirs, values)
    assert central_rows(ours, values) == expected, ours
    assert service_rows(ours, values) == expected, ours


def test_the_generated_statements_run_as_a_pushed_top_k():
    from repro.sql.fragments import split_select

    for term in TERMS:
        sql = f"SELECT key, a, s FROM t ORDER BY {term} DESC, key LIMIT 3"
        assert split_select(parse(sql)).fragment("t").top_k is not None


#: ``b`` holds an int and a str: no total order over its values.
CROSS_TYPE = [{"a": 5, "b": "x"}, {"a": 5, "b": 2}, {"a": 1, "b": 0},
              {"a": 0, "b": 1}]


@pytest.mark.parametrize("order", ["a, b", "a DESC, b", "b, a",
                                   "a, b DESC"])
@pytest.mark.parametrize("tail", ["", " LIMIT 1", " LIMIT 2",
                                  " LIMIT 1 OFFSET 2"])
def test_a_cross_type_term_raises_whatever_the_limit(order, tail):
    """Whether the incomparable pair is ever compared depends on the
    limit, the direction and which rows share a chunk or shard; the
    error must not.  ``(0, 1)`` sorts first under ``a, b`` and a bounded
    selection never reaches ``(5, 'x')`` against ``(5, 2)``.  (``LIMIT
    0`` ranks nothing and raises nothing: ``test_topk_properties``.)"""
    sql = f"SELECT a, b FROM t ORDER BY {order}{tail}"
    runs = [
        lambda: central_rows(sql, CROSS_TYPE),
        lambda: service_rows(sql, CROSS_TYPE),
        lambda: service_rows(sql, CROSS_TYPE, pushdown=False),
        lambda: service_rows(sql, CROSS_TYPE,
                             costs=CostModel(scan_chunk_entries=1)),
    ]
    for run in runs:
        with pytest.raises(SqlExecutionError,
                           match="cannot compare int with str"):
            run()

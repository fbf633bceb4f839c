"""Two select items of one output name are a plan error.

A result row is a dict keyed by output name, so the later of two items
sharing a name used to overwrite the earlier one: ``SELECT x.b, y.b``
over a join returned ``y.b`` twice, centrally and distributed, and a
standing ``SELECT a, b AS a`` published one ``a``.  Every execution
path — the central executor, a query service joining on the entry node
or with each forced strategy, a pushed scan, a partial aggregation and
``subscribe`` — now raises the same ``SqlPlanError`` naming the column.
Two items that are the same expression (``SELECT a, a``) still share a
name.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlPlanError
from repro.query import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable
from repro.state.rows import live_row

from ..properties.test_join_properties import STRATEGIES, forced

TABLES = {"t1": {1: {"a": 1, "b": 10}}, "t2": {1: {"a": 1, "b": 20}}}

JOINED = 'SELECT x.b, y.b FROM "t1" AS x JOIN "t2" AS y ON x.a = y.a'
#: Statements whose two items named ``b`` / ``a`` differ, and the name.
CLASHES = [
    (JOINED, "b"),
    ('SELECT a, b AS a FROM "t1"', "a"),
    ('SELECT a, COUNT(*) AS a FROM "t1" GROUP BY a', "a"),
]
#: Statements whose items share a name because they are one expression.
SAME = [
    ('SELECT a, a FROM "t1"', [(1, 1)]),
    ('SELECT x.b AS xb, y.b AS yb FROM "t1" AS x JOIN "t2" AS y '
     "ON x.a = y.a", [(10, 20)]),
    ('SELECT COUNT(*), COUNT(*) FROM "t1"', [(1, 1)]),
]


def environment() -> Environment:
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    for name, rows in TABLES.items():
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in rows.items():
            imap.put(key, value)
    return env


def central(sql: str):
    catalog = DictCatalog({name: ListTable(name, tuple(
        live_row(key, value) for key, value in rows.items()
    )) for name, rows in TABLES.items()})
    return execute_select(parse(sql), catalog, EvalContext())


def message(name: str) -> str:
    return f"two different select items are named {name!r}"


@pytest.mark.parametrize("sql, name", CLASHES)
def test_central_execution_raises(sql, name):
    with pytest.raises(SqlPlanError, match=message(name)):
        central(sql)


@pytest.mark.parametrize("sql, name", CLASHES)
@pytest.mark.parametrize("distributed", [False, True])
def test_query_service_raises(sql, name, distributed):
    service = QueryService(environment(), distributed_joins=distributed)
    with pytest.raises(SqlPlanError, match=message(name)):
        service.execute(sql)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_join_strategy_raises(monkeypatch, strategy):
    with forced(monkeypatch, strategy):
        service = QueryService(environment())
        with pytest.raises(SqlPlanError, match=message("b")):
            service.execute(JOINED)


@pytest.mark.parametrize("sql, name", CLASHES)
def test_subscribe_raises(sql, name):
    service = QueryService(environment())
    with pytest.raises(SqlPlanError, match=message(name)):
        service.subscribe(sql)


@pytest.mark.parametrize("sql, rows", SAME)
def test_one_expression_may_repeat_a_name(sql, rows):
    assert central(sql).tuples() == rows
    execution = QueryService(environment()).execute(sql)
    assert execution.error is None and execution.result.tuples() == rows

"""An aggregate in a LIKE pattern is an aggregate.

``ast.contains_aggregate`` and ``ast.collect_aggregates`` walk every
expression through ``ast.children``, the LIKE pattern included.  A
walker that skipped the pattern took ``'abc' LIKE MAX(s)`` for a
per-row expression, and the statement failed with "aggregate MAX used
outside aggregation" instead of comparing ``'abc'`` against the
largest ``s``.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.continuous.standing import PATH_GROUPED_AGGREGATE, classify
from repro.query import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable
from repro.state.rows import live_row

VALUES = {1: {"k": 0, "s": "a%"}, 2: {"k": 0, "s": "zz"},
          3: {"k": 1, "s": "ab%"}, 4: {"k": 1, "s": "b"}}

#: statement -> rows: MAX(s) is 'zz' overall, 'ab%' and 'b' per group.
STATEMENTS = {
    "SELECT 'abc' LIKE MAX(s) AS m FROM t": [{"m": False}],
    "SELECT k, 'abc' LIKE MAX(s) AS m FROM t GROUP BY k ORDER BY k": [
        {"k": 0, "m": False}, {"k": 1, "m": False}],
    "SELECT k, 'abc' LIKE MIN(s) AS m FROM t GROUP BY k ORDER BY k": [
        {"k": 0, "m": True}, {"k": 1, "m": True}],
}


def central(sql):
    catalog = DictCatalog({"t": ListTable("t", tuple(
        live_row(key, value) for key, value in VALUES.items()
    ))})
    return execute_select(parse(sql), catalog, EvalContext()).rows


def service(pushdown):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in VALUES.items():
        imap.put(key, value)
    return QueryService(env, pushdown=pushdown)


@pytest.mark.parametrize("sql", sorted(STATEMENTS))
def test_like_pattern_aggregate_runs_everywhere(sql):
    expected = STATEMENTS[sql]
    assert central(sql) == expected
    for pushdown in (True, False):
        assert service(pushdown).execute(sql).result.rows == expected


class _Store:
    def has_live_table(self, name):
        return True


@pytest.mark.parametrize("sql", [
    "SELECT 'abc' LIKE MAX(s) AS m FROM t",
    "SELECT k, 'abc' LIKE MAX(s) AS m FROM t GROUP BY k",
])
def test_standing_query_sees_the_aggregate(sql):
    path, _reason = classify(parse(sql), _Store())
    assert path == PATH_GROUPED_AGGREGATE

"""One WHERE rule and one error order on every path.

The contract is written once, in ``repro.sql.batch``: a table's own
conjuncts run on its rows before any join, a row leaves at its first
conjunct that is not TRUE, and a statement raises its least error by
(phase, row position).  Each case below once had pushdown, an index
read or a join placement answer differently from the others; every
combination of the three gates now gives the one outcome spelled out.
"""

import dataclasses
import itertools

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.state.live import LiveStateTable


@dataclasses.dataclass
class Reading:
    a: object
    b: object

    @property
    def g(self):  # an attribute, never a column
        return "property"


#: A hash index on ``a`` serves ``a = 3``; the row NULL on it leaves
#: there, before its ``b`` is compared, whichever way it is read.
INDEXED = {"t": [{"a": key % 300, "b": 5} for key in range(3000)]
           + [{"a": None, "b": "x"}]}
JOIN_TU = 'SELECT t.key FROM "t" AS t JOIN "u" AS u ON t.k = u.k WHERE '

#: ``(tables, statement, rows or error text)``.
CASES = {
    # (a) the index read is exact: it skips only rows ``a = 3`` drops
    "index": (INDEXED, 'SELECT key FROM "t" WHERE a = 3 AND 1e16 > b',
              [(key,) for key in range(3, 3000, 300)]),
    # (b) u's conjunct runs on u's rows, the unmatched one too
    "unmatched build row": (
        {"t": [{"k": 1, "b": 1}], "u": [{"k": 1, "y": 1}, {"k": 2, "y": "x"}]},
        JOIN_TU + "u.y < 1e16", "cannot compare str with float"),
    # ... and t's on t's
    "unmatched probe row": (
        {"t": [{"k": 1, "b": 1}, {"k": 3, "b": "x"}], "u": [{"k": 1, "y": 1}]},
        JOIN_TU + "t.b < 1e16", "cannot compare str with float"),
    # a row t's conjunct drops never reaches the join's key check
    "dropped row without its key": (
        {"t": [{"k": 1, "b": 1}, {"b": 1e17}], "u": [{"k": 1, "y": 1}]},
        JOIN_TU + "t.b < 1e16", [(0,)]),
    # t's conjunct runs before the join, wherever it is written
    "per-table conjunct written second": (
        {"t": [{"k": 1, "b": 1}, {"k": 2, "b": "x"}],
         "u": [{"k": 1, "y": 1}, {"k": 2, "y": 2}]},
        JOIN_TU + "u.y = 1 AND t.b < 1e16", "cannot compare str with float"),
    # (d) the WHERE phase outranks grouping on a shard as centrally
    "where before grouping": (
        {"data": [Reading(1, None), {}, Reading(2, None), {}]},
        'SELECT g, COUNT(*) AS c FROM "data" t WHERE a < 1e16 GROUP BY g',
        "unknown column 'a'"),
}
GATES = list(itertools.product([True, False], repeat=3))


def build(tables):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1,
                                    partition_count=32))
    for name, rows in tables.items():
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in enumerate(rows):
            imap.put(key, value)
    if tables is INDEXED:
        env.store.create_index("t", "a", "hash")
    return env


def outcome(service, sql):
    execution = service.submit(sql)
    while not execution.done:
        assert service.sim.step()
    assert service.store.locks.held_count == 0
    if execution.error is not None:
        assert isinstance(execution.error, SqlExecutionError)
        return str(execution.error)
    return sorted(execution.result.tuples())


@pytest.mark.parametrize("case", CASES)
def test_every_gate_combination_gives_the_one_outcome(case):
    tables, sql, expected = CASES[case]
    env = build(tables)
    for pushdown, indexes, distributed_joins in GATES:
        service = QueryService(env, pushdown=pushdown, indexes=indexes,
                               distributed_joins=distributed_joins)
        assert outcome(service, sql) == expected, (
            pushdown, indexes, distributed_joins)
    if tables is INDEXED:
        assert "index probe on 'a'" in QueryService(env).explain(sql)

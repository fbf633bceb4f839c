"""Hash-join keys: a hash join matches exactly the pairs SQL ``=`` does.

List-, dict- and set-valued join columns used to raise a raw
``TypeError: unhashable type`` out of ``execute`` on every hash-join
path.  The oracle here is the same comparison as a nested-loop
predicate (``ON a.x = b.x AND 1 = 1`` is no equi-join, so it always
runs centrally, row pair by row pair); every hash-join path — central
and each forced distributed strategy — must return its rows.
"""

import math

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..properties.test_join_properties import STRATEGIES, forced

HASHED = ('SELECT a.n AS an, b.n AS bn FROM "a" AS a '
          'JOIN "b" AS b ON a.x = b.x ORDER BY an, bn')
NESTED = ('SELECT a.n AS an, b.n AS bn FROM "a" AS a '
          'JOIN "b" AS b ON a.x = b.x AND 1 = 1 ORDER BY an, bn')


def environment(left: list, right: list) -> Environment:
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    for name, values in (("a", left), ("b", right)):
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for n, value in enumerate(values):
            imap.put(n, {"x": value, "n": n})
    return env


def hash_join_paths(monkeypatch, env):
    """``(label, service)`` for central and every forced strategy."""
    yield "central", QueryService(env, distributed_joins=False)
    for strategy in STRATEGIES:
        with forced(monkeypatch, strategy):
            yield strategy, QueryService(env)


def pairs(service, sql) -> list:
    execution = service.execute(sql)
    assert execution.error is None, (sql, execution.error)
    return execution.result.tuples()


@pytest.mark.parametrize("make", [
    lambda k: [k % 2],
    lambda k: {"k": k % 2},
    lambda k: {k % 2},
    lambda k: [k % 2, [k % 3]],
    lambda k: (k % 2, [1]),
], ids=["list", "dict", "set", "nested-list", "tuple-of-list"])
def test_container_keys_join_like_sql_equality(monkeypatch, make):
    env = environment([make(k) for k in range(6)],
                      [make(k) for k in range(5)])
    expected = pairs(QueryService(env), NESTED)
    assert expected  # the comparison does match some pairs
    for label, service in hash_join_paths(monkeypatch, env):
        assert pairs(service, HASHED) == expected, label


#: Values that look alike but SQL ``=`` tells apart, and ones it does
#: not: ``[1]`` equals ``[1.0]`` but neither ``'[1]'`` nor ``(1,)``;
#: ``1`` equals ``1.0`` and ``True``; a set equals the frozenset of its
#: elements; NaN equals nothing, and NULL never matches.
LOOKALIKES = [[1], "[1]", (1,), 1, 1.0, True, [1.0], {1}, frozenset({1}),
              {"a": 1}, {"a": 1.0}, "{'a': 1}", None, math.nan, [math.nan]]


def test_lookalike_keys_match_exactly_where_sql_equality_holds(
        monkeypatch):
    env = environment(LOOKALIKES, LOOKALIKES)
    expected = pairs(QueryService(env), NESTED)
    position = {repr(value): n for n, value in enumerate(LOOKALIKES)}

    def matched(left, right) -> bool:
        return (position[repr(left)], position[repr(right)]) in expected

    assert not matched([1], "[1]") and not matched([1], (1,))
    assert matched(1, 1.0) and matched([1], [1.0])
    assert matched({1}, frozenset({1})) and matched({"a": 1}, {"a": 1.0})
    assert not matched(math.nan, math.nan) and not matched(None, None)
    for label, service in hash_join_paths(monkeypatch, env):
        assert pairs(service, HASHED) == expected, label


def test_using_keys_compare_column_by_column(monkeypatch):
    """A NaN in one ``USING`` column fails that column's ``=``, even
    when both rows hold the very same NaN object."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    for name in ("a", "b"):
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for n, value in enumerate([[1], math.nan, {"k": [2]}, None]):
            imap.put(n, {"x": value, "n": n})
    sql = ('SELECT a.n AS an, b.n AS bn FROM "a" AS a JOIN "b" AS b '
           "USING (partitionKey, x) ORDER BY an, bn")
    for label, service in hash_join_paths(monkeypatch, env):
        assert pairs(service, sql) == [(0, 0), (2, 2)], label


def test_a_value_no_hash_can_key_is_a_typed_error(monkeypatch):
    env = environment([bytearray(b"a"), 1], [1, bytearray(b"a")])
    for label, service in hash_join_paths(monkeypatch, env):
        with pytest.raises(SqlExecutionError) as error:
            service.execute(HASHED)
        assert str(error.value) == "cannot join on bytearray values", label

"""Literals of different types are different literals.

``1``, ``1.0`` and ``TRUE`` are equal values, but an expression holding
one computes other types than one holding another: ``a + 1`` is an int
where ``a + 1.0`` is a float, and ``b > 1`` names ``int`` in its error
where ``b > 1.0`` names ``float``.  So neither a statement's aggregate
calls nor a service's compiled fragments may take one for the other.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.sql import parse
from repro.sql.ast import Literal
from repro.state.live import LiveStateTable

GATES = [{}, {"pushdown": False}, {"repeatable_read": True}]


def live_env(values):
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate(values):
        imap.put(key, value)
    return env


def typed(rows):
    return [{name: (type(value), value) for name, value in row.items()}
            for row in rows]


def test_literals_of_equal_values_and_other_types_differ():
    literals = [Literal(1), Literal(1.0), Literal(True)]
    assert len(set(literals)) == 3
    assert Literal(1) == Literal(1) and Literal(1) != Literal(1.0)
    assert parse('SELECT a + 1 FROM "t"') != parse('SELECT a + 1.0 FROM "t"')


@pytest.mark.parametrize("gates", GATES)
def test_two_aggregate_calls_differing_in_a_literal_type_are_two(gates):
    env = live_env([{"a": value} for value in (1, 2, 3)])
    result = QueryService(env, **gates).execute(
        'SELECT SUM(a + 1) AS x, SUM(a + 1.0) AS y FROM "t"').result
    assert typed(result.rows) == [{"x": (int, 9), "y": (float, 9.0)}]


def test_a_compiled_fragment_is_not_reused_for_another_literal_type():
    env = live_env([{"a": value, "g": value % 2} for value in range(6)])
    service = QueryService(env)
    ints = service.execute(
        'SELECT g, SUM(a + 1) AS s FROM "t" GROUP BY g ORDER BY g').result
    floats = service.execute(
        'SELECT g, SUM(a + 1.0) AS s FROM "t" GROUP BY g ORDER BY g').result
    assert typed(ints.rows) == [{"g": (int, 0), "s": (int, 9)},
                                {"g": (int, 1), "s": (int, 12)}]
    assert typed(floats.rows) == [{"g": (int, 0), "s": (float, 9.0)},
                                  {"g": (int, 1), "s": (float, 12.0)}]


def test_an_error_names_the_literal_type_it_compared_with():
    env = live_env([{"b": "x"}])
    service = QueryService(env)
    for literal, kind in (("1", "int"), ("1.0", "float"), ("1", "int")):
        with pytest.raises(SqlExecutionError) as error:
            service.execute(f'SELECT * FROM "t" WHERE b > {literal}')
        assert str(error.value) == f"cannot compare str with {kind}"

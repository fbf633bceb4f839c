"""Key predicates with float and bool literals answer like a scan.

``key = 7.0`` is true for the row with key ``7``, but ``stable_hash``
hashes by type, so a point get or partition pruning keyed on ``7.0``
reads the wrong partition.  Only ``int`` and ``str`` literals may pin
keys; the same predicate over ``key + 0`` (which pins nothing) is the
reference.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.sql import EvalContext, parse
from repro.sql.executor import execute_select
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

PREDICATES = [
    ("key = 7.0", "key + 0 = 7.0"),
    ("key IN (7.0, 8)", "key + 0 IN (7.0, 8)"),
    ("key = TRUE", "key + 0 = TRUE"),
]


def rows(service, sql):
    return sorted(service.execute(sql).result.rows,
                  key=lambda row: row["key"])


@pytest.fixture
def live_env():
    env = Environment(ClusterConfig(nodes=5, processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(200):
        imap.put(key, {"value": key % 50})
    return env


@pytest.mark.parametrize("pinned, scanned", PREDICATES)
def test_live_key_literal_matches_scan(live_env, pinned, scanned):
    service = QueryService(live_env)
    expected = rows(service, f'SELECT * FROM "metrics" WHERE {scanned}')
    assert expected  # the reference finds the row(s)
    got = rows(service, f'SELECT * FROM "metrics" WHERE {pinned}')
    assert got == expected
    assert [type(row["key"]) for row in got] == [int] * len(got)


@pytest.mark.parametrize("pinned, scanned", PREDICATES)
def test_snapshot_key_literal_matches_scan(env, pinned, scanned):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    ssid = env.store.committed_ssid
    service = QueryService(env)
    table = f'"snapshot_average" WHERE ssid = {ssid} AND'
    expected = rows(service, f"SELECT * FROM {table} {scanned}")
    assert expected
    got = rows(service, f"SELECT * FROM {table} {pinned}")
    assert got == expected
    assert [type(row["key"]) for row in got] == [int] * len(got)


@pytest.mark.parametrize("where", [
    "1e16 > b AND key = 5",
    "1e16 > b AND key IN (5, 6)",
    "key = 5 AND 1e16 > b",
])
def test_point_get_derives_from_leading_key_conjuncts_only(where):
    """A key conjunct written after one that may raise pins no point
    get: every row meets that conjunct first, and key 0's ``'x'``
    raises as the statement over a catalog does.  Written first, the
    key conjunct decides before it and the get stays a point get."""
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(10):
        imap.put(key, {"b": "x" if key == 0 else key})
    sql = f'SELECT key FROM "metrics" WHERE {where}'
    catalog = DictCatalog({"metrics": ListTable("metrics", tuple(
        {"b": value["b"], "partitionKey": key, "key": key}
        for key, value in imap.entries()))})
    try:
        expected = execute_select(parse(sql), catalog,
                                  EvalContext(now_ms=0)).rows
    except SqlExecutionError as exc:
        expected = repr(exc)
    execution = QueryService(env).submit(sql)
    while execution.completed_ms is None:
        env.sim.step()
    got = (repr(execution.error) if execution.error is not None
           else execution.result.rows)
    assert got == expected
    assert (execution.point_keys is not None) == where.startswith("key")

"""Tests for the columnar scan path in the query service.

Covers the execution counters and their report rollup, the zero-entry
shard fast path (which must neither bill a chunk nor occupy a store
server), and scan-side error shipping (errors surface on the handle
with every lock released).
"""

import pytest

from repro.config import ClusterConfig
from repro.env import Environment
from repro.errors import SqlExecutionError
from repro.observability import collect_report, format_report
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

NODES = 3


def build_env(keys=120):
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1),
    )
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key in range(keys):
        imap.put(key, {"v": key % 10, "g": key % 4,
                       "s": f"s-{key % 5}"})
    return env


def store_jobs_served(env) -> int:
    return sum(server.jobs_served
               for node in env.cluster.nodes
               for server in node.store_servers)


# -- counters and report rollup ----------------------------------------------


def test_vectorized_execution_counts_batches_and_compiles():
    env = build_env()
    service = QueryService(env)
    execution = service.execute(
        'SELECT g, COUNT(*) AS c FROM "data" WHERE v < 8 GROUP BY g'
    )
    assert execution.error is None
    assert execution.batches_evaluated > 0
    assert execution.predicates_compiled + execution.compile_cache_hits > 0
    assert execution.scan_ms_billed > 0
    assert service.totals["batches_evaluated"] == execution.batches_evaluated


def test_report_rolls_up_columnar_counters():
    env = build_env()
    service = QueryService(env)
    service.execute('SELECT COUNT(*) AS c FROM "data" WHERE v < 9')
    report = collect_report(env)
    assert report.batches_evaluated >= service.totals["batches_evaluated"] > 0
    assert "columnar:" in format_report(report)


# -- zero-entry shards (regression) ------------------------------------------


def test_empty_table_bills_nothing_and_submits_no_store_jobs():
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1)
    )
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    service = QueryService(env)
    before = store_jobs_served(env)
    execution = service.execute('SELECT v FROM "data" WHERE v < 3')
    assert execution.error is None
    assert execution.result.rows == []
    # A shard with zero entries must neither bill a chunk nor occupy a
    # store server (it used to submit a full-chunk job regardless).
    assert execution.entries_billed == 0
    assert execution.scan_ms_billed == 0
    assert execution.batches_evaluated == 0
    assert store_jobs_served(env) == before


def test_contradictory_key_filter_bills_nothing():
    env = build_env()
    service = QueryService(env)
    before = store_jobs_served(env)
    execution = service.execute(
        'SELECT v FROM "data" WHERE key = 1 AND key = 2'
    )
    assert execution.error is None
    assert execution.result.rows == []
    assert execution.entries_billed == 0
    assert store_jobs_served(env) == before


def test_key_range_bills_identically_across_scan_paths():
    # A key range prunes nothing on a live table (rows move under the
    # scan), so the pushed fragment is billed the entries the ship-all
    # scan is billed.
    billed = {}
    for pushdown in (True, False):
        env = build_env()
        service = QueryService(env, pushdown=pushdown)
        execution = service.execute(
            'SELECT v FROM "data" WHERE key BETWEEN 0 AND 3 '
            "ORDER BY key"
        )
        assert execution.error is None
        assert [row["v"] for row in execution.result.rows] == [0, 1, 2, 3]
        billed[pushdown] = execution.entries_billed
    assert billed[True] == billed[False] == 120


# -- scan-side errors --------------------------------------------------------


@pytest.mark.parametrize("repeatable_read", [True, False])
def test_pushed_predicate_error_surfaces_and_releases_locks(
        repeatable_read):
    # Under repeatable read the clean shards hold their rows' locks by
    # the time the poisoned shard's error lands at the entry node.
    env = build_env()
    env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                        "s": "s-0"})
    service = QueryService(env, repeatable_read=repeatable_read)
    execution = service.submit('SELECT v FROM "data" WHERE v < 3')
    env.run_for(5_000)
    assert execution.done
    assert isinstance(execution.error, SqlExecutionError)
    assert "cannot compare" in str(execution.error)
    assert env.store.locks.held_count == 0


def error_of(env, sql, **service_kwargs):
    service = QueryService(env, **service_kwargs)
    with pytest.raises(SqlExecutionError) as excinfo:
        service.execute(sql)
    return str(excinfo.value)


def test_error_message_identical_across_scan_paths_and_central():
    env = build_env()
    env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                        "s": "s-0"})
    sql = 'SELECT v FROM "data" WHERE v < 3'
    pushed = error_of(env, sql)
    central = error_of(env, sql, pushdown=False)
    assert pushed == central
    assert "cannot compare" in pushed

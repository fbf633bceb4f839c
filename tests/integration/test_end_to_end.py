"""Whole-system integration tests across all S-QUERY configurations."""

import pytest

from repro import ClusterConfig, Environment, VANILLA, SQueryConfig
from repro.query import DirectObjectInterface, QueryService
from repro.state import SQueryBackend

from ..conftest import build_average_job, make_squery_backend


def fresh_env(nodes=3):
    return Environment(ClusterConfig(nodes=nodes,
                                     processing_workers_per_node=2))


def test_all_four_figure_configurations_run():
    """The four Fig. 8 configurations all process the same stream."""
    results = {}
    for mode, config in {
        "live+snap": SQueryConfig(),
        "live": SQueryConfig(snapshot_state=False),
        "snap": SQueryConfig(live_state=False),
        "jet": VANILLA,
    }.items():
        env = fresh_env()
        if config is VANILLA:
            backend = None
        else:
            backend = SQueryBackend(env.cluster, env.store, config)
        job = build_average_job(env, backend=backend, rate=1000,
                                keys=10, limit_per_instance=200)
        job.start()
        env.run_until(30_000)
        state = job.operator_state("average")
        results[mode] = sum(s.count for s in state.values())
    assert set(results.values()) == {600}


def test_live_and_snapshot_views_converge_when_stream_stops():
    env = fresh_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=15,
                            limit_per_instance=300,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(30_000)  # stream exhausted, further checkpoints idle
    service = QueryService(env)
    live = service.execute(
        'SELECT SUM(count) AS s FROM "average"'
    ).result.rows[0]["s"]
    snap = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"'
    ).result.rows[0]["s"]
    assert live == snap == 900


def test_sql_and_direct_interfaces_agree():
    env = fresh_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            limit_per_instance=100)
    job.start()
    env.run_until(30_000)
    service = QueryService(env)
    doi = DirectObjectInterface(env)
    sql_rows = service.execute(
        'SELECT partitionKey, count FROM "average"'
    ).result
    direct = doi.submit_get("average", list(range(10)))
    env.run_for(100)
    by_key = {row["partitionKey"]: row["count"] for row in sql_rows.rows}
    assert {k: v.count for k, v in direct.values.items()} == by_key


def test_incremental_and_full_snapshots_answer_identically():
    answers = {}
    for incremental in (False, True):
        env = fresh_env()
        backend = make_squery_backend(
            env, snapshot_backend="chain" if incremental else "full",
            prune_chain_length=3)
        job = build_average_job(env, backend=backend, rate=2000, keys=12,
                                limit_per_instance=250,
                                checkpoint_interval_ms=400)
        job.start()
        env.run_until(30_000)
        service = QueryService(env)
        result = service.execute(
            'SELECT partitionKey, count, total FROM "snapshot_average" '
            "ORDER BY partitionKey"
        ).result
        answers[incremental] = result.tuples()
    assert answers[False] == answers[True]
    assert len(answers[True]) == 12


def test_multi_version_query_with_higher_retention():
    env = fresh_env()
    backend = make_squery_backend(env, retained_snapshots=4)
    job = build_average_job(env, backend=backend, rate=2000, keys=8,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(3_500)
    assert len(env.store.available_ssids()) == 4
    service = QueryService(env)
    # Query two distinct retained versions: counts grow between them.
    old, new = env.store.available_ssids()[0], env.store.available_ssids()[-1]
    count_old = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=old
    ).result.rows[0]["s"]
    count_new = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=new
    ).result.rows[0]["s"]
    assert count_new > count_old


def test_queries_during_failure_and_recovery():
    env = fresh_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(1_700)
    service = QueryService(env)
    ssid = env.store.committed_ssid
    before = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=ssid
    ).result.rows[0]["s"]
    env.cluster.kill_node(2)
    after = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=ssid
    ).result.rows[0]["s"]
    assert after == before
    env.run_until(6_000)
    # The system keeps checkpointing and querying after recovery.
    assert env.store.committed_ssid > ssid


def test_simplifying_topologies_use_case():
    """§III's example: instead of a second job counting items, query the
    averaging operator's internal count directly."""
    env = fresh_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=1000, keys=5,
                            limit_per_instance=100)
    job.start()
    env.run_until(30_000)
    service = QueryService(env)
    result = service.execute(
        'SELECT SUM(count) AS items_so_far FROM "average"'
    ).result
    assert result.rows[0]["items_so_far"] == 300


@pytest.mark.parametrize("nodes", [1, 2, 5])
def test_various_cluster_sizes(nodes):
    env = Environment(ClusterConfig(
        nodes=nodes, processing_workers_per_node=2,
        backup_count=1 if nodes > 1 else 0,
    ))
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=1000, keys=10,
                            limit_per_instance=100, parallelism=nodes)
    job.start()
    env.run_until(30_000)
    service = QueryService(env)
    result = service.execute('SELECT SUM(count) AS s FROM "average"')
    assert result.result.rows[0]["s"] == 100 * nodes

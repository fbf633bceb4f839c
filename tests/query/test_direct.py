"""Tests for the direct object interface."""

import pytest

from repro.errors import QueryError, SnapshotNotFoundError
from repro.query import DirectObjectInterface, QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend


@pytest.fixture
def running(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    return job, backend


def test_live_get_returns_state_objects(env, running):
    doi = DirectObjectInterface(env)
    query = doi.submit_get("average", [0, 1, 2])
    env.run_for(100)
    assert query.done
    assert set(query.values) == {0, 1, 2}
    assert all(v.count > 0 for v in query.values.values())


def test_missing_keys_omitted(env, running):
    doi = DirectObjectInterface(env)
    query = doi.submit_get("average", [0, 12345])
    env.run_for(100)
    assert set(query.values) == {0}


def test_snapshot_get_explicit_id(env, running):
    doi = DirectObjectInterface(env)
    ssid = env.store.committed_ssid
    query = doi.submit_get("snapshot_average", [0, 1], snapshot_id=ssid)
    env.run_for(100)
    assert set(query.values) == {0, 1}


def test_snapshot_get_latest_sentinel(env, running):
    doi = DirectObjectInterface(env)
    query = doi.submit_get("snapshot_average", [0], snapshot_id=-1)
    env.run_for(100)
    assert query.error is None
    assert 0 in query.values


def test_snapshot_get_before_commit_errors(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend)
    job.start()
    env.run_until(50)
    doi = DirectObjectInterface(env)
    query = doi.submit_get("snapshot_average", [0], snapshot_id=-1)
    env.run_for(100)
    assert isinstance(query.error, SnapshotNotFoundError)


def test_latency_grows_with_key_count(env, running):
    doi = DirectObjectInterface(env)
    one = doi.submit_get("average", [0])
    many = doi.submit_get("average", list(range(20)))
    env.run_for(200)
    assert many.latency_ms > one.latency_ms


def test_latency_sublinear_in_keys(env, running):
    """Batching economies of scale: 16 keys cost less than 16x one key
    (the mechanism behind Fig. 14's power law)."""
    doi = DirectObjectInterface(env)
    one = doi.submit_get("average", [0])
    sixteen = doi.submit_get("average", list(range(16)))
    env.run_for(200)
    assert sixteen.latency_ms < 16 * one.latency_ms


def test_latency_raises_while_running(env, running):
    doi = DirectObjectInterface(env)
    query = doi.submit_get("average", [0])
    with pytest.raises(QueryError):
        _ = query.latency_ms


def test_on_done_callback(env, running):
    doi = DirectObjectInterface(env)
    seen = []
    doi.submit_get("average", [0], on_done=seen.append)
    env.run_for(100)
    assert len(seen) == 1
    assert seen[0].done


def test_query_pools_keep_no_per_query_key(env):
    """Neither SQL point queries nor direct gets leave an ordering key
    per query in the entry nodes' pools (they used to: one entry per
    query id, never dropped)."""
    table = env.store.create_map("kv")
    env.store.register_live_table("kv", LiveStateTable(table))
    for key in range(50):
        table.put(key, {"v": key})
    service = QueryService(env)
    doi = DirectObjectInterface(env)
    handles = []
    for i in range(500):
        handles.append(service.submit(
            f'SELECT v FROM "kv" WHERE key = {i % 50}'
        ))
        handles.append(doi.submit_get("kv", [i % 50]))
        env.run_for(1.0)
    env.run_for(100)
    assert all(handle.done and handle.error is None for handle in handles)
    assert service.queries_executed == doi.queries_executed == 500
    for node in env.cluster.nodes:
        assert node.query_pool.jobs_served > 0
        assert node.query_pool._key_busy_until == {}


def test_live_get_reads_each_key_once(env, running):
    table = env.store.get_live_table("average")
    reads = []
    original = table.get

    def counting_get(key, default=None):
        reads.append(key)
        return original(key, default)

    table.get = counting_get
    doi = DirectObjectInterface(env)
    query = doi.submit_get("average", [0, 1, 12345])
    env.run_for(100)
    assert set(query.values) == {0, 1}
    assert sorted(reads) == [0, 1, 12345]


def test_no_surviving_nodes_raises_query_error(env, running):
    for node in env.cluster.nodes:
        node.alive = False
    doi = DirectObjectInterface(env)
    with pytest.raises(QueryError, match="no surviving nodes"):
        doi.submit_get("average", [0])

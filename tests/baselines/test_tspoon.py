"""Tests for the TSpoon baseline."""

import pytest

from repro.baselines import TSpoonSystem, build_vanilla_backend
from repro.dataflow.backend import VanillaBackend
from repro.errors import QueryError

from ..conftest import build_average_job, make_squery_backend


@pytest.fixture
def running(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(1_500)
    return job, backend


def test_tspoon_reads_live_state(env, running):
    tspoon = TSpoonSystem(env)
    query = tspoon.submit_get("average", [0, 1])
    env.run_for(100)
    assert query.done
    assert set(query.values) == {0, 1}


def test_tspoon_latency_includes_txn_overhead(env, running):
    from repro.query import DirectObjectInterface

    tspoon = TSpoonSystem(env)
    squery = DirectObjectInterface(env)
    t_query = tspoon.submit_get("average", [0])
    s_query = squery.submit_get("average", [0])
    env.run_for(100)
    # Single-key: the transactional overhead makes TSpoon ~2x slower,
    # the paper's Fig. 14 headline.
    assert t_query.latency_ms > 1.5 * s_query.latency_ms


def test_tspoon_converges_with_squery_at_many_keys(env, running):
    from repro.query import DirectObjectInterface

    tspoon = TSpoonSystem(env)
    squery = DirectObjectInterface(env)
    keys = list(range(20))
    t_query = tspoon.submit_get("average", keys)
    s_query = squery.submit_get("average", keys)
    env.run_for(200)
    assert t_query.latency_ms < 1.3 * s_query.latency_ms


def test_tspoon_latency_raises_while_running(env, running):
    tspoon = TSpoonSystem(env)
    query = tspoon.submit_get("average", [0])
    with pytest.raises(QueryError):
        _ = query.latency_ms


def test_tspoon_on_done_callback(env, running):
    tspoon = TSpoonSystem(env)
    seen = []
    tspoon.submit_get("average", [0], on_done=seen.append)
    env.run_for(100)
    assert len(seen) == 1


def test_build_vanilla_backend(env):
    backend = build_vanilla_backend(env.cluster)
    assert isinstance(backend, VanillaBackend)
    assert backend.incremental is False


def test_tspoon_leaves_no_ordering_key_in_the_query_pools(env, running):
    """A read-only transaction is one pool job; it used to be keyed on
    ``id(query)``, one map entry per query, never dropped."""
    tspoon = TSpoonSystem(env)
    queries = []
    for burst in range(125):
        queries += [tspoon.submit_get("average", [key])
                    for key in range(burst % 13, burst % 13 + 8)]
        env.run_for(1.0)
    env.run_for(100)
    assert all(query.done for query in queries)
    assert tspoon.queries_executed == 1000
    for node in env.cluster.nodes:
        assert node.query_pool.jobs_served > 0
        assert node.query_pool._key_busy_until == {}

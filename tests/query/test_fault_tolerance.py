"""Tests for the failure-aware query path.

A node death during a query must never hang the handle: lost scan
shards are rescheduled onto survivors within the retry budget, the
death of the entry node aborts immediately, and a watchdog timeout
backstops everything else.
"""

from dataclasses import replace

import pytest

from repro import Environment
from repro.config import ClusterConfig, CostModel, QueryRetryPolicy
from repro.errors import (
    ConfigurationError,
    QueryAbortedError,
    QueryError,
    QueryTimeoutError,
)
from repro.query import QueryService
from repro.query.service import QueryExecution

from ..conftest import build_average_job, make_squery_backend
from .test_kill_sweep import SLOW_JOINS, skewed_env

#: Slow per-entry scans: a 250-key table takes several virtual ms per
#: node, giving failure injection a wide mid-scan window to land in.
#: Both scan paths are slowed so the window holds under either gate.
SLOW_SCANS = CostModel(scan_entry_ms=0.05)


@pytest.fixture
def slow_env():
    return Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        costs=SLOW_SCANS,
    )


@pytest.fixture
def running_job(slow_env):
    backend = make_squery_backend(slow_env)
    job = build_average_job(slow_env, backend=backend, rate=4000, keys=250,
                            checkpoint_interval_ms=500)
    job.start()
    slow_env.run_until(2_250)  # several checkpoints committed
    return job


def non_entry_survivor(env, execution: QueryExecution) -> int:
    return next(
        n for n in env.cluster.surviving_node_ids()
        if n != execution.entry_node
    )


def test_mid_scan_kill_reschedules_and_completes(slow_env, running_job):
    service = QueryService(slow_env)
    execution = service.submit('SELECT COUNT(*) AS n FROM "average"')
    slow_env.run_for(2.0)  # past planning, scans now in flight
    assert not execution.done
    victim = non_entry_survivor(slow_env, execution)
    slow_env.cluster.fail_node(victim)
    slow_env.run_for(1_000)
    assert execution.done
    assert execution.error is None
    assert execution.retries == 1
    assert service.query_retries == 1
    assert service.query_aborts == 0
    assert service.inflight_queries == 0


def test_snapshot_query_identical_across_kill_and_recovery(
        slow_env, running_job):
    from repro.chaos import snapshot_fingerprint

    service = QueryService(slow_env)
    ssid = slow_env.store.committed_ssid
    sql = f'SELECT key, count, total FROM "snapshot_average" ' \
          f"WHERE ssid = {ssid}"
    before = service.execute(sql)

    execution = service.submit(sql)
    slow_env.run_for(2.0)
    victim = non_entry_survivor(slow_env, execution)
    slow_env.cluster.fail_node(victim)
    slow_env.run_for(1_000)
    assert execution.error is None
    assert execution.retries == 1

    slow_env.cluster.restart_node(victim)
    after = service.execute(sql)

    fp = snapshot_fingerprint(before.result)
    assert snapshot_fingerprint(execution.result) == fp
    assert snapshot_fingerprint(after.result) == fp


def test_entry_node_death_aborts_immediately(slow_env, running_job):
    service = QueryService(slow_env)
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow_env.run_for(2.0)
    submitted_at = slow_env.now
    slow_env.cluster.fail_node(execution.entry_node)
    assert execution.done  # synchronously with the failure event
    assert isinstance(execution.error, QueryAbortedError)
    assert execution.completed_ms == submitted_at
    assert service.query_aborts == 1
    assert service.inflight_queries == 0


def test_retry_budget_exhaustion_aborts(slow_env, running_job):
    service = QueryService(
        slow_env, retry_policy=QueryRetryPolicy(max_retries=0)
    )
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow_env.run_for(2.0)
    slow_env.cluster.fail_node(non_entry_survivor(slow_env, execution))
    slow_env.run_for(1_000)
    assert isinstance(execution.error, QueryAbortedError)
    assert execution.retries == 0
    assert service.query_retries == 0
    assert service.query_aborts == 1


def test_second_failure_exhausts_single_retry(slow_env, running_job):
    service = QueryService(
        slow_env, retry_policy=QueryRetryPolicy(max_retries=1,
                                                retry_backoff_ms=5.0)
    )
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow_env.run_for(2.0)
    slow_env.cluster.fail_node(non_entry_survivor(slow_env, execution))
    slow_env.run_for(10.0)  # re-dispatched onto survivors by now
    if not execution.done:
        slow_env.cluster.fail_node(
            non_entry_survivor(slow_env, execution)
        )
    slow_env.run_for(1_000)
    assert execution.done
    # Either the retry completed before the second kill or the second
    # kill exhausted the budget; both end in a terminal state.
    assert execution.error is None or isinstance(
        execution.error, QueryAbortedError
    )
    assert service.inflight_queries == 0


def test_watchdog_timeout_bounds_every_query(slow_env, running_job):
    service = QueryService(
        slow_env, retry_policy=QueryRetryPolicy(query_timeout_ms=0.5)
    )
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow_env.run_for(10.0)
    assert isinstance(execution.error, QueryTimeoutError)
    assert execution.latency_ms == pytest.approx(0.5)
    assert service.query_timeouts == 1
    assert service.query_aborts == 1
    assert service.inflight_queries == 0


def test_no_surviving_nodes_raises_query_error(slow_env, running_job):
    for node in slow_env.cluster.nodes:
        node.alive = False
    service = QueryService(slow_env)
    with pytest.raises(QueryError, match="no surviving nodes"):
        service.submit('SELECT COUNT(*) FROM "average"')


def test_live_query_spanning_rollback_is_flagged(slow_env, running_job):
    service = QueryService(slow_env)
    live = service.submit('SELECT COUNT(*) FROM "average"')
    ssid = slow_env.store.committed_ssid
    snap = service.submit(
        f'SELECT COUNT(*) FROM "snapshot_average" WHERE ssid = {ssid}'
    )
    slow_env.run_for(2.0)
    slow_env.cluster.fail_node(non_entry_survivor(slow_env, live))
    slow_env.run_for(1_000)
    assert live.error is None
    assert live.observed_rollback  # fuzzy view spans the epoch boundary
    if snap.error is None:
        assert not snap.observed_rollback  # snapshots are immune


def test_query_after_restart_uses_rejoined_node(slow_env, running_job):
    cluster = slow_env.cluster
    cluster.fail_node(2)
    slow_env.run_for(500)
    cluster.restart_node(2)
    service = QueryService(slow_env)
    # Entry rotation cycles over all alive nodes, including node 2.
    entries = {service.submit('SELECT 1 FROM "average"').entry_node
               for _ in range(3)}
    assert entries == {0, 1, 2}
    slow_env.run_for(1_000)
    assert service.inflight_queries == 0


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        QueryRetryPolicy(max_retries=-1).validate()
    with pytest.raises(ConfigurationError):
        QueryRetryPolicy(retry_backoff_ms=-0.1).validate()
    with pytest.raises(ConfigurationError):
        QueryRetryPolicy(query_timeout_ms=0).validate()


# -- scan billing (regression: final partial chunk was billed in full) ----


def test_scan_bills_exactly_the_entries_scanned(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=250)
    job.start()
    env.run_until(1_500)
    service = QueryService(env)
    execution = service.execute('SELECT COUNT(*) AS n FROM "average"')
    assert execution.result.rows[0]["n"] == 250
    # chunk size 256 vs shards of ~83 entries: every shard ends in a
    # partial chunk, which must be billed pro rata, not rounded up.
    assert execution.entries_billed == execution.entries_scanned == 250


# -- lock hygiene (repeatable read) ---------------------------------------


def test_repeatable_read_point_lookup_releases_locks(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=20)
    job.start()
    env.run_until(1_500)
    service = QueryService(env, repeatable_read=True)
    execution = service.execute('SELECT * FROM "average" WHERE key = 1')
    assert execution.error is None
    assert len(execution.result) == 1
    assert env.store.locks.held_count == 0
    assert env.store.locks.waiting_count == 0


def test_contended_lock_blocks_instead_of_being_dropped(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=20,
                            limit_per_instance=500)
    job.start()
    env.run_until(3_000)  # sources exhausted: no writer lock traffic
    locks = env.store.locks
    contentions_before = locks.contentions
    assert locks.try_acquire(("average", 1), "external-holder")

    service = QueryService(env, repeatable_read=True)
    # lint: allow(blocking-under-lock) the lock is held by a phantom
    # external owner on purpose: this test exists to drive the query
    # into the contended FIFO wait path.
    execution = service.submit('SELECT * FROM "average" WHERE key = 1')
    env.run_for(1_000)
    # The query queues FIFO behind the holder instead of skipping the
    # lock (the old behaviour silently dropped contended keys).
    assert not execution.done
    assert locks.contentions == contentions_before + 1
    assert locks.waiting_count == 1

    locks.release(("average", 1), "external-holder")
    env.run_for(1_000)
    assert execution.done
    assert execution.error is None
    assert locks.held_count == 0
    assert locks.waiting_count == 0


def test_aborted_query_returns_contended_lock(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=20,
                            limit_per_instance=500)
    job.start()
    env.run_until(3_000)
    locks = env.store.locks
    assert locks.try_acquire(("average", 1), "external-holder")

    service = QueryService(
        env, repeatable_read=True,
        retry_policy=QueryRetryPolicy(query_timeout_ms=50.0),
    )
    # lint: allow(blocking-under-lock) phantom external holder again:
    # the point is to time the query out while it waits on the lock.
    execution = service.submit('SELECT * FROM "average" WHERE key = 1')
    env.run_for(1_000)  # watchdog fires while still waiting on the lock
    assert isinstance(execution.error, QueryTimeoutError)

    # The late grant hands the lock to the dead query, which gives it
    # straight back: nothing leaks, no waiters strand.
    locks.release(("average", 1), "external-holder")
    assert locks.held_count == 0
    assert locks.waiting_count == 0


def test_two_repeatable_read_point_queries_serialise(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=20)
    job.start()
    env.run_until(1_500)
    service = QueryService(env, repeatable_read=True)
    first = service.submit('SELECT * FROM "average" WHERE key = 1')
    second = service.submit('SELECT * FROM "average" WHERE key = 1')
    env.run_for(2_000)
    assert first.error is None and second.error is None
    assert env.store.locks.held_count == 0
    assert env.store.locks.waiting_count == 0


# -- network channel hygiene ----------------------------------------------


def test_query_channels_close_at_completion(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000, keys=40)
    job.start()
    env.run_until(1_500)
    service = QueryService(env)
    service.execute('SELECT COUNT(*) FROM "average"')  # warm-up
    baseline = env.cluster.network.open_channels
    for _ in range(10):
        service.execute('SELECT COUNT(*) FROM "average"')
    # Every query closed its per-shard result channels on completion;
    # the floor table does not grow with the number of queries ever run.
    assert env.cluster.network.open_channels <= baseline


# -- what a death voids: the whole attempt, once, while it matters ---------


def _skewed_query(sql, costs=SLOW_JOINS, **service_kwargs):
    """``sql`` submitted on the kill sweep's skewed four-node data:
    node 3's ``orders`` shard scans for ~9 ms, the others for ~1.5."""
    env = skewed_env(costs)
    service = QueryService(env, **service_kwargs)
    return env, service, service.submit(sql)


def _drain(env, execution):
    while not execution.done:
        assert env.sim.step()
    assert execution.error is None
    return execution.result.rows


LATE_KILL_CASES = {
    "scan": ('SELECT partitionKey, amount FROM "orders" '
             "ORDER BY partitionKey", {}),
    "distributed-join": (
        'SELECT o.partitionKey, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey',
        {"distributed_joins": True},
    ),
    "central-join": (
        'SELECT o.partitionKey, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey',
        {"distributed_joins": False},
    ),
}


@pytest.mark.parametrize("case", sorted(LATE_KILL_CASES))
def test_late_kill_of_a_delivered_node_retries_once(case):
    """Node 2's shard has arrived, node 3's is still scanning: node 2's
    death re-homes its partitions under node 3's pending fetch, so what
    node 2 delivered can no longer be kept — one retry, same rows."""
    sql, gates = LATE_KILL_CASES[case]
    env, _, undisturbed = _skewed_query(sql, **gates)
    expected = _drain(env, undisturbed)

    env, service, execution = _skewed_query(sql, **gates)
    env.run_for(5.0)
    assert not execution.done
    env.cluster.fail_node(2)
    assert _drain(env, execution) == expected
    assert execution.retries == 1
    assert service.query_retries == 1


def test_kill_during_the_entry_node_merge_costs_no_retry():
    slow_merge = replace(SLOW_JOINS, merge_row_ms=0.1)  # 27 ms merge
    sql = 'SELECT partitionKey, amount FROM "orders" ORDER BY partitionKey'
    env, _, undisturbed = _skewed_query(sql, slow_merge)
    expected = _drain(env, undisturbed)

    env, service, execution = _skewed_query(sql, slow_merge)
    env.run_for(undisturbed.latency_ms - 1.0)  # every shard has landed
    assert not execution.done
    env.cluster.fail_node(3)
    assert _drain(env, execution) == expected
    assert execution.retries == 0
    assert execution.latency_ms == undisturbed.latency_ms
    assert service.query_retries == 0


def test_second_kill_during_the_backoff_consumes_a_second_retry():
    sql = 'SELECT partitionKey, amount FROM "orders" ORDER BY partitionKey'
    env, _, undisturbed = _skewed_query(sql)
    expected = _drain(env, undisturbed)

    env, service, execution = _skewed_query(
        sql, retry_policy=QueryRetryPolicy(retry_backoff_ms=50.0),
    )
    env.run_for(5.0)
    env.cluster.fail_node(2)
    assert execution.retries == 1
    env.run_for(10.0)  # still waiting out the first backoff
    env.cluster.fail_node(3)
    assert execution.retries == 2
    assert _drain(env, execution) == expected
    # the first re-dispatch (due at 55 ms) was superseded: the answer
    # comes from the one after the second backoff
    assert execution.latency_ms > 15.0 + 50.0
    assert service.query_retries == 2
    assert service.inflight_queries == 0

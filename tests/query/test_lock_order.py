"""Regression tests for canonical lock-acquisition order.

Repeatable-read shards used to lock keys in row-shipment order; two
concurrent queries whose shards landed in different orders could each
hold some keys while queued FIFO behind the other's — a hold-and-wait
cycle.  ``_lock_rows`` now issues requests in sorted key order.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig, SanitizerConfig
from repro.query import QueryService

from ..conftest import build_average_job, make_squery_backend
from ..properties.test_join_properties import QUERIES, populate


@pytest.fixture
def running_env():
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2)
    )
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, keys=40)
    job.start()
    env.run_until(1_500)
    return env


def test_lock_rows_acquires_in_sorted_key_order(running_env, monkeypatch):
    env = running_env
    batches = []
    original = QueryService._lock_rows

    def spying_lock_rows(self, execution, table_name, rows, then):
        locks = self.store.locks
        recorded = []
        orig_acquire = locks.acquire

        def recording_acquire(key, owner, granted=None):
            recorded.append(key)
            return orig_acquire(key, owner, granted=granted)

        locks.acquire = recording_acquire
        try:
            original(self, execution, table_name, rows, then)
        finally:
            locks.acquire = orig_acquire
        batches.append(recorded)

    monkeypatch.setattr(QueryService, "_lock_rows", spying_lock_rows)
    service = QueryService(env, repeatable_read=True)
    execution = service.execute('SELECT COUNT(*) AS n FROM "average"')
    assert execution.error is None
    assert batches and any(len(batch) > 1 for batch in batches)
    for batch in batches:
        assert batch == sorted(batch, key=repr)
    # With 40 keys, repr order differs from arrival (numeric) order —
    # at least one batch must have been genuinely reordered.
    assert any(
        [key[1] for key in batch]
        != sorted(key[1] for key in batch)
        for batch in batches if len(batch) > 1
    )


def test_concurrent_repeatable_read_scans_do_not_deadlock(running_env):
    env = running_env
    service = QueryService(env, repeatable_read=True)
    executions = [
        service.submit('SELECT COUNT(*) AS n FROM "average"')
        for _ in range(4)
    ]
    env.run_for(5_000)
    assert all(e.done and e.error is None for e in executions)
    assert env.sanitizers is None or env.sanitizers.lockdep_violations == 0


@pytest.mark.parametrize("distributed_joins", [True, False])
def test_multi_table_statements_lock_tables_in_one_order(distributed_joins):
    """A query locks its tables one after another in name order, not
    in the order its shards land: every query then acquires the lock
    classes in the same order, and lockdep sees no inversion."""
    env = Environment(
        ClusterConfig(nodes=3),
        sanitizers=SanitizerConfig(enabled=True, fail_fast=False),
    )
    populate(env, 1)
    service = QueryService(env, repeatable_read=True,
                           distributed_joins=distributed_joins)
    for sql in QUERIES:
        execution = service.execute(sql)
        assert execution.error is None, (sql, execution.error)
    assert env.sanitizers.lockdep_violations == 0
    assert env.sanitizers.verify() == []
    assert env.store.locks.held_keys() == []

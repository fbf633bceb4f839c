"""A standing query that raises on a change ends its own subscribers,
and nothing else: the mirror write releases its key lock, the job runs
on, and the other plans on the same table keep their deliveries."""

import pytest

from repro.continuous.delivery import BATCH_FAILED
from repro.errors import SqlExecutionError
from repro.query import QueryService

from ..conftest import build_average_job, make_squery_backend

BAD = 'SELECT * FROM "average" WHERE count > \'x\''
GOOD = 'SELECT * FROM "average" WHERE count > 0'
TOTAL = 'SELECT SUM(count) AS events FROM "average"'


def test_a_raising_plan_fails_its_subscribers_and_nothing_else(env):
    job = build_average_job(env, backend=make_squery_backend(env))
    service = QueryService(env)
    batches = {}

    def subscribe(sql, **kwargs):
        subscription = service.subscribe(
            sql, on_batch=lambda s, b: batches.setdefault(s.id, []).append(b),
            **kwargs)
        batches[subscription.id] = []
        return subscription

    bad = [subscribe(BAD), subscribe(BAD, tier="coalesced")]
    good, total = subscribe(GOOD), subscribe(TOTAL)
    job.start()
    env.run_for(100)
    sunk = job.sink_received("sink")
    assert sunk > 0
    assert env.store.locks.held_count == 0

    with pytest.raises(SqlExecutionError) as raised:
        service.execute(BAD)
    for subscription in bad:
        last = batches[subscription.id][-1]
        assert last.kind == BATCH_FAILED and last.entries == []
        assert type(last.error) is type(raised.value)
        assert str(last.error) == str(raised.value)
        assert not subscription.active and not subscription.evicted
    continuous = env.continuous
    assert continuous.active_subscriptions == 2
    assert continuous.shared_plan_count == 2
    assert continuous.slow_consumers_evicted == 0

    received = [len(batches[good.id]), len(batches[total.id])]
    env.run_for(200)
    assert job.sink_received("sink") > sunk
    assert env.store.locks.held_count == 0
    assert len(batches[good.id]) > received[0]
    assert len(batches[total.id]) > received[1]
    assert all(len(batches[s.id]) == batches[s.id][-1].seq for s in bad)
    # The survivors' views still equal a fresh execution of their SQL.
    env.run_for(50)
    job.stop()
    env.run_for(50)
    assert sorted(map(repr, good.rows())) == sorted(
        map(repr, service.execute(GOOD).result.rows))

"""A finished query lets go of its timeout watchdog.

``submit`` schedules a watchdog ``query_timeout_ms`` (30 virtual s) out;
``_finish_execution`` cancels it, and a cancelled queue entry drops its
arguments, so neither the pending-event count nor the execution (with
its result rows) outlives the query.
"""

import gc
import weakref

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.state.live import LiveStateTable


@pytest.fixture
def service():
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(100):
        imap.put(key, {"value": key})
    return QueryService(env)


def run_queries(service, count):
    for index in range(count):
        service.execute(
            f'SELECT * FROM "metrics" WHERE key = {index % 100}')


def test_pending_events_do_not_grow_with_finished_queries(service):
    sim = service.sim
    run_queries(service, 50)
    after_fifty = sim.pending_events
    run_queries(service, 500)
    assert sim.pending_events == after_fifty == 0


def test_finished_execution_can_be_collected(service):
    execution = service.execute('SELECT * FROM "metrics" WHERE key < 50')
    assert len(execution.result.rows) == 50
    assert not execution.watchdog.active
    ref = weakref.ref(execution)
    del execution
    gc.collect()
    assert ref() is None


def test_draining_stops_at_the_last_real_event(service):
    """``sim.run()`` after a query no longer advances the clock to the
    query's 30 s watchdog."""
    execution = service.submit('SELECT COUNT(*) FROM "metrics"')
    service.sim.run()
    assert execution.done
    assert service.sim.now == execution.completed_ms
    assert service.sim.now < service.retry_policy.query_timeout_ms


def test_cancelled_watchdogs_do_not_pile_up_on_the_heap(service):
    """The heap drops its cancelled entries once they outnumber the live
    ones (and ``COMPACT_MIN``): 10,000 queries, each finished one
    leaving a cancelled watchdog behind, end with a heap of about the
    live events, where it held every watchdog until its 30 s came."""
    sim = service.sim
    heap = sim._queue.heap
    sizes = []

    def submit(index):
        service.submit(f'SELECT * FROM "metrics" WHERE key = {index % 100}',
                       on_done=lambda _execution: sizes.append(
                           len(heap) - 2 * sim.pending_events))
        if index + 1 < 10_000:
            sim.schedule(0.01, submit, index + 1)

    submit(0)
    sim.run_until(60_000.0)
    assert len(sizes) == 10_000
    assert max(sizes) <= 128
    assert len(heap) <= 2 * sim.pending_events + 128

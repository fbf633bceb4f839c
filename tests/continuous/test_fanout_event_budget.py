"""Event budget of push fan-out: simulator events per update do not grow
with the subscriber count.

One shared filter-project plan carries unfiltered subscribers plus
residual buckets.  One update reaches every unfiltered subscriber and
one bucket; the router hands each bucket to the service in one call,
the bucket's flushes due at one virtual time run as one simulator
event, and so do the consumes a message delivers at one time.  What is
left per update is per node pair (outbox pool jobs, network messages),
so the same bound holds at 50 and at 200 subscribers on one cluster.
"""

import pytest

from repro import ClusterConfig, Environment
from repro.query import QueryService
from repro.state.live import LiveStateTable

NODES = 3
BUCKETS = 4
SUBSCRIBERS_PER_BUCKET = 3
#: Events one update may cost end to end, whatever the subscriber count:
#: a few per node pair, nothing per subscriber.
EVENT_BUDGET = 30


def events_for_one_update(unfiltered: int) -> int:
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("t")
    table = LiveStateTable(imap)
    env.store.register_live_table("t", table)
    for key in range(20):
        imap.put(key, {"g": key % BUCKETS, "v": key})
    service = QueryService(env)
    subs = [service.subscribe('SELECT * FROM "t"',
                              subscriber_node=index % NODES)
            for index in range(unfiltered)]
    bucket = []
    for index in range(BUCKETS * SUBSCRIBERS_PER_BUCKET):
        sub = service.subscribe(
            f'SELECT * FROM "t" WHERE g = {index % BUCKETS}',
            subscriber_node=index % NODES)
        if index % BUCKETS == 1:
            bucket.append(sub)
    env.run_for(100.0)  # the seeding snapshots are consumed
    assert env.continuous.shared_plan_count == 1
    before = env.sim.processed_events
    table.apply_update(5, {"g": 1, "v": -5})
    env.run_for(100.0)
    events = env.sim.processed_events - before
    for sub in subs + bucket:
        assert sub.view[5]["v"] == -5
        assert not (sub.pending or sub.outstanding)
    return events


@pytest.mark.parametrize("unfiltered", [50, 200])
def test_events_per_update_do_not_grow_with_subscribers(unfiltered):
    assert events_for_one_update(unfiltered) <= EVENT_BUDGET

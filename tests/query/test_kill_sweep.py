"""Kill sweep: a non-entry node dies at every event boundary of a query.

For each statement shape the query runs once undisturbed, which gives
the expected rows and the number of simulator steps *N* it takes.  Then,
for every ``k < N`` and every non-entry victim, a fresh environment
runs the same query, steps the simulator ``k`` times, kills the victim
and drains.  The answer must be the undisturbed rows (tables made with
``create_map`` keep a backup, so the data survives one death) or a
clean :class:`~repro.errors.QueryAbortedError` — never a wrong answer
— at the cost of at most one retry, counting the plan's join decisions
once, and leaving no lock, channel or in-flight record behind.  The
autouse fail-fast sanitizers are armed, so work scheduled onto the dead
node raises at the offending call.

The data is skewed — node 3 holds several times the ``orders`` rows of
the others — so shards finish at different times.  That opens the
window the sweep exists for: the victim's shard has already delivered
when it dies, while another shard has yet to read the re-homed
partitions.
"""

import random
from functools import partial

import pytest

from repro import Environment
from repro.config import ClusterConfig, CostModel
from repro.errors import QueryAbortedError
from repro.query import QueryService
from repro.query.joins import JOIN_COUNTERS
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend
from ..properties.test_join_properties import SLOW_JOINS, populate

ENTRY_NODE = 0  # a fresh service's first query enters at node 0

#: Slow scans and probes but a cheap build: the one-node build of a
#: broadcast join stays cheaper than shuffling both sides.
SLOW_PROBES = CostModel(scan_entry_ms=0.05,
                        join_probe_entry_ms=0.05)


def skewed_env(costs: CostModel = SLOW_JOINS) -> Environment:
    """``populate``'s orders/states/dims on four nodes, plus 150 extra
    orders on node 3 and a sketch for the APPROX shape."""
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1,
                      partition_count=32),
        costs=costs,
    )
    populate(env, seed=3, orders=120)
    orders = env.store.get_map("orders")
    rng = random.Random(3)
    owner_of = env.cluster.partitioner.owner_of
    heavy = [key for key in range(1_000, 3_000) if owner_of(key) == 3]
    for key in heavy[:150]:
        orders.put(key, {"cust": rng.randrange(0, 12),
                         "amount": rng.randrange(0, 500),
                         "pad": rng.randrange(0, 10**6)})
    env.store.create_sketch("orders", "cust", "hll")
    return env


def index_env() -> Environment:
    """A tiny probe side against a large indexed build side."""
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1,
                      partition_count=32),
        costs=SLOW_JOINS,
    )
    rng = random.Random(13)
    small = env.store.create_map("small")
    env.store.register_live_table("small", LiveStateTable(small))
    big = env.store.create_map("big")
    env.store.register_live_table("big", LiveStateTable(big))
    for key in range(15):
        small.put(key, {"fk": rng.randrange(0, 40), "a": key})
    for key in range(2_000):
        big.put(key, {"rk": key % 700, "b": rng.randrange(0, 100)})
    env.store.create_index("big", "rk")
    return env


def job_env() -> Environment:
    """A running job with committed snapshots (three nodes)."""
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        costs=SLOW_JOINS,
    )
    job = build_average_job(env, backend=make_squery_backend(env),
                            rate=1000, keys=60,
                            checkpoint_interval_ms=50)
    job.start()
    env.run_until(130)
    return env


DIMS_JOIN = ('SELECT o.partitionKey, d.region FROM "orders" AS o '
             'JOIN "dims" AS d ON o.cust = d.cust_id '
             "WHERE o.amount > 400 "
             "ORDER BY o.partitionKey, d.partitionKey")
COPARTITIONED = ('SELECT o.partitionKey, s.status FROM "orders" AS o '
                 'JOIN "states" AS s USING (partitionKey) '
                 "ORDER BY o.partitionKey")

#: name -> (environment builder, statement, service gates, join
#: strategies the statement must have run with)
SHAPES = {
    "scan": (skewed_env,
             'SELECT partitionKey, amount FROM "orders"', {}, []),
    "pushed-filter": (skewed_env,
                      'SELECT partitionKey, amount FROM "orders" '
                      "WHERE amount > 250", {}, []),
    "count": (skewed_env, 'SELECT COUNT(*) AS n FROM "orders"', {}, []),
    "group-by": (skewed_env,
                 'SELECT cust, COUNT(*) AS n, SUM(amount) AS total '
                 'FROM "orders" GROUP BY cust ORDER BY cust', {}, []),
    "top-k": (skewed_env,
              'SELECT partitionKey, amount FROM "orders" '
              "ORDER BY amount DESC, partitionKey LIMIT 10", {}, []),
    "point-get": (skewed_env,
                  'SELECT partitionKey, amount FROM "orders" '
                  "WHERE key IN (1, 2, 3, 4, 5, 6, 7) "
                  "ORDER BY partitionKey", {}, []),
    "approx-sketch": (skewed_env,
                      'SELECT APPROX COUNT(DISTINCT cust) AS d '
                      'FROM "orders"', {}, []),
    "copartitioned-join": (skewed_env, COPARTITIONED, {},
                           ["copartitioned"]),
    "broadcast-join": (partial(skewed_env, SLOW_PROBES), DIMS_JOIN, {},
                       ["broadcast"]),
    # with a slow build, repartitioning both sides prices cheaper
    "shuffle-join": (skewed_env, DIMS_JOIN, {}, ["shuffle"]),
    "index-nested-loop-join": (index_env,
                               'SELECT s.partitionKey, b.b '
                               'FROM "small" AS s '
                               'JOIN "big" AS b ON s.fk = b.rk '
                               "ORDER BY s.partitionKey, b.partitionKey",
                               {}, ["index-nested-loop"]),
    "central-join": (skewed_env, COPARTITIONED,
                     {"distributed_joins": False}, ["central"]),
    "repeatable-read": (skewed_env,
                        'SELECT partitionKey, amount FROM "orders" '
                        "WHERE amount > 250",
                        {"repeatable_read": True}, []),
    "count-no-pushdown": (skewed_env,
                          'SELECT COUNT(*) AS n FROM "orders"',
                          {"pushdown": False}, []),
    "job-snapshot": (job_env,
                     'SELECT key, count, total FROM "snapshot_average"',
                     {}, []),
}


def canonical(sql: str, rows: list[dict]) -> list[dict]:
    """Rows as the statement defines them: in order when it has an
    ORDER BY, as a multiset otherwise (the merge concatenates shards in
    node order, and a death re-homes partitions)."""
    return rows if "ORDER BY" in sql else sorted(rows, key=repr)


def join_decisions(execution) -> tuple:
    """What the execution counted of its join plan: each step's
    strategy and the per-strategy counters."""
    return (execution.join_strategies,
            *(getattr(execution, name) for name in JOIN_COUNTERS.values()))


def run(make_env, sql, gates, kill_after=None, victim=None):
    """Submit ``sql`` on a fresh environment and step until it is done,
    failing ``victim`` after ``kill_after`` steps; returns the
    environment, service, execution and the steps taken."""
    env = make_env()
    service = QueryService(env, **gates)
    execution = service.submit(sql)
    assert execution.entry_node == ENTRY_NODE
    steps = 0
    while not execution.done:
        if steps == kill_after:
            env.cluster.fail_node(victim)
        assert env.sim.step(), "simulation drained before the query"
        steps += 1
    return env, service, execution, steps


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kill_at_every_event_boundary(shape):
    make_env, sql, gates, strategies = SHAPES[shape]
    env, service, undisturbed, steps = run(make_env, sql, gates)
    assert undisturbed.error is None
    assert undisturbed.join_strategies == strategies
    expected = canonical(sql, undisturbed.result.rows)
    assert expected, "the shape must return rows to compare"
    decided = join_decisions(undisturbed)
    static = make_env is not job_env
    victims = [node for node in env.cluster.surviving_node_ids()
               if node != ENTRY_NODE]

    wrong = []
    retried = 0
    for kill_after in range(steps):
        for victim in victims:
            env, service, execution, _ = run(
                make_env, sql, gates, kill_after, victim
            )
            if execution.error is None:
                rows = canonical(sql, execution.result.rows)
                if rows != expected:
                    wrong.append((kill_after, victim, len(rows),
                                  execution.retries))
            else:
                assert isinstance(execution.error, QueryAbortedError), \
                    (kill_after, victim, execution.error)
            assert execution.retries <= 1, (kill_after, victim)
            # A retry re-places the plan's shards; the join decisions
            # are counted once, on the first dispatch.
            assert join_decisions(execution) == decided, (kill_after, victim)
            retried += execution.retries
            assert service.inflight_queries == 0
            assert not execution.channels
            locks = env.store.locks
            assert not any(locks.holder_of(key) is execution
                           for key in locks.held_keys())
            if static:  # a running job has channels and locks of its own
                assert locks.held_count == 0
                assert env.cluster.network.open_channels == 0
    assert not wrong, (
        f"{len(wrong)} of {steps * len(victims)} kills returned wrong "
        f"rows (expected {len(expected)}); (step, victim, rows, "
        f"retries): {wrong}"
    )
    assert retried, "no kill landed while the query was distributed"

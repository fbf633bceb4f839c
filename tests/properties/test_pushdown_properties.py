"""Property tests for distributed pushdown: equivalence and retries.

Pushdown is a pure optimisation, so for any data and any supported
query the on/off results must be identical — including under node
kills and restarts, where per-table attempt tokens must keep partial
aggregates from ever being double-counted.

Values are ints and floats, some far apart in magnitude, so sums
added one by one in different orders round differently; aggregate
states are exact, so the answers are the same bits either way.
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import ClusterConfig, CostModel, QueryRetryPolicy
from repro.errors import QueryError
from repro.query import QueryService
from repro.state.live import LiveStateTable

QUERIES = [
    'SELECT key, v FROM "data" WHERE v < 10 ORDER BY key',
    'SELECT g, SUM(v) AS s, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi '
    'FROM "data" GROUP BY g ORDER BY g',
    'SELECT COUNT(*) AS n FROM "data" WHERE g = 3 AND v > 50',
    'SELECT AVG(v) AS a FROM "data"',
    'SELECT g, COUNT(*) AS c FROM "data" WHERE v % 2 = 0 GROUP BY g '
    "HAVING COUNT(*) > 2 ORDER BY g",
    'SELECT v FROM "data" WHERE key IN (1, 5, 9, 700)',
    'SELECT COUNT(*) AS n FROM "data" WHERE key BETWEEN 100 AND 220',
]


def number(rng):
    """An int, a float, or now and then a large float or one that
    rounds (0.1)."""
    roll = rng.random()
    if roll < 0.5:
        return rng.randrange(0, 200)
    if roll < 0.95:
        return rng.uniform(0, 200)
    return rng.choice((1e16, -1e16, 0.1))


def populate(env, seed, keys=600):
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    rng = random.Random(seed)
    for key in range(keys):
        imap.put(key, {
            "v": number(rng),
            "g": rng.randrange(0, 6),
            "pad": rng.randrange(0, 10**6),
        })


@pytest.mark.parametrize("seed", [1, 17, 42])
def test_random_data_on_off_equivalence(seed):
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed)
    on = QueryService(env, pushdown=True)
    off = QueryService(env, pushdown=False)
    for sql in QUERIES:
        lhs = on.execute(sql)
        rhs = off.execute(sql)
        assert lhs.result.columns == rhs.result.columns, sql
        assert lhs.result.rows == rhs.result.rows, sql


#: Slow scans widen the mid-scan window failure injection lands in
#: (both scan paths, so the window is wide whichever gate is active).
SLOW_SCANS = CostModel(scan_entry_ms=0.05)
TIMEOUT_MS = 2_000.0


@pytest.mark.parametrize("seed", [5, 23])
def test_chaos_kills_preserve_on_off_equivalence(seed):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_SCANS,
    )
    populate(env, seed)
    services = {
        True: QueryService(env, pushdown=True,
                           retry_policy=QueryRetryPolicy(
                               query_timeout_ms=TIMEOUT_MS)),
        False: QueryService(env, pushdown=False,
                            retry_policy=QueryRetryPolicy(
                                query_timeout_ms=TIMEOUT_MS)),
    }
    chaos = ChaosHarness(env, seed=seed)
    chaos.plan_random(horizon_ms=2_500.0, kills=2,
                      restart_after_ms=300.0)

    pairs = []
    executions = []

    def fire(sql: str) -> None:
        try:
            pair = (services[True].submit(sql),
                    services[False].submit(sql))
        except QueryError:
            return  # "no surviving nodes" is a legal rejection
        pairs.append((sql, *pair))
        executions.extend(pair)

    for index in range(18):
        sql = QUERIES[index % len(QUERIES)]
        env.sim.schedule_at(10.0 + index * 150.0, fire, sql)

    env.run_until(2_500.0 + TIMEOUT_MS + 1_000.0)

    assert chaos.kills_executed >= 1
    assert pairs, "workload generated no query pairs"
    assert_invariants(env, executions)
    compared = 0
    for sql, on, off in pairs:
        assert on.done and off.done
        if on.error is not None or off.error is not None:
            continue  # aborted by chaos; completion is all we require
        # The live table is quiescent (no job mutates it), so both
        # executions observed the same rows regardless of timing and
        # retries — results must be identical.
        assert on.result.columns == off.result.columns, sql
        assert on.result.rows == off.result.rows, sql
        compared += 1
    assert compared > 0, "no pair completed cleanly under chaos"


@pytest.mark.parametrize("kill_after_ms", [2.0, 4.0, 6.0])
def test_mid_scan_kill_does_not_double_count_partials(kill_after_ms):
    # A fresh cluster per offset: restarting a failed node hands its
    # partitions to the survivors, so a reused victim would have nothing
    # to scan and the kill would not exercise the retry path at all.
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_SCANS,
    )
    populate(env, seed=9)
    service = QueryService(env)
    sql = ('SELECT g, SUM(v) AS s, COUNT(*) AS c FROM "data" '
           "GROUP BY g ORDER BY g")
    expected = service.execute(sql).result.rows

    execution = service.submit(sql)
    env.run_for(kill_after_ms)  # planning done, scans in flight
    assert not execution.done
    victim = next(
        node for node in env.cluster.surviving_node_ids()
        if node != execution.entry_node
    )
    env.cluster.fail_node(victim)
    env.run_for(2_000)
    assert execution.done
    assert execution.error is None
    assert execution.retries == 1
    # Attempt tokens discarded the dead node's shipped partials, so
    # no group was counted twice across the retry.
    assert execution.result.rows == expected


def test_point_gets_survive_owner_death():
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_SCANS,
    )
    populate(env, seed=13)
    service = QueryService(env)
    sql = 'SELECT key, v FROM "data" WHERE key IN (1, 50, 99, 420)'
    expected = service.execute(sql).result.rows
    assert len(expected) == 4

    execution = service.submit(sql)
    env.run_for(0.5)
    victim = next(
        node for node in env.cluster.surviving_node_ids()
        if node != execution.entry_node
    )
    env.cluster.fail_node(victim)
    env.run_for(2_000)
    assert execution.done
    if execution.error is None:  # retried onto surviving replicas
        assert execution.result.rows == expected
        assert execution.retries >= 0
    env.cluster.restart_node(victim)

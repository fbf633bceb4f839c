"""A query service's snapshot shard plans, reused against derived afresh.

Two identical checkpointing q-commerce environments run the same
script: Queries 1-4 and one single-table statement whose predicate an
index can serve, materialised and as pure load, before and after DDL on
a snapshot table, across a node kill and its restart, and across a
retention prune.  One service keeps its snapshot plans; the other
empties them before every query.  Every execution must come out the
same on both: rows, latency, error and every counter.
"""

import gc
import weakref

import pytest

from repro import (ClusterConfig, Environment, QueryService, SQueryBackend,
                   SQueryConfig)
from repro.cluster.partition import stable_hash
from repro.errors import SnapshotNotFoundError
from repro.query.service import COUNTERS
from repro.workloads.qcommerce import (ALL_QUERIES, QUERY_3,
                                       build_qcommerce_job, order_info_for,
                                       order_status_for)

ORDERS = 1200
CHECKPOINT_MS = 200.0

#: Queries 1-4 leave their predicates at the entry node; this one
#: pushes its predicate to the shards, where an index can serve it.
INDEXED = ('SELECT COUNT(*) AS n FROM "snapshot_orderstate" '
           "WHERE orderState = 'VENDOR_ACCEPTED'")
STATEMENTS = ALL_QUERIES + (INDEXED,)

#: What an execution must reproduce, besides its rows.
FIELDS = COUNTERS + ("snapshot_id", "latency_ms", "scan_ms_billed",
                     "entries_scanned", "entries_billed", "retries",
                     "join_strategies")


def checkpointing_job():
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=1,
                      query_workers_per_node=2, backup_count=1,
                      partition_count=32),
        seed=5,
    )
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    job = build_qcommerce_job(env, backend, orders=ORDERS,
                              events_per_s=2000.0,
                              checkpoint_interval_ms=CHECKPOINT_MS,
                              parallelism=3, seed=5)
    for vertex, make in (
        ("orderinfo", order_info_for),
        ("orderstate",
         lambda key: order_status_for(key, key % 8, late=key % 4 == 0)),
    ):
        instances = job.instances_of(vertex)
        for key in range(ORDERS):
            instances[stable_hash(key) % len(instances)] \
                .operator.state.put(key, make(key))
    job.start()
    env.run_for(1.5 * CHECKPOINT_MS)
    return env


class Script:
    """Runs the script's steps against one environment, recording what
    every execution produced."""

    def __init__(self, fresh):
        self.env = checkpointing_job()
        self.service = QueryService(self.env)
        self.fresh = fresh
        self.outcomes = []

    def queries(self, snapshot_id=None):
        """The statements, materialised then as pure load, one at a
        time."""
        for materialize in (True, False):
            for sql in STATEMENTS:
                self.run(sql, snapshot_id, materialize)

    def run(self, sql, snapshot_id=None, materialize=True):
        if self.fresh:
            self.service.snapshot_plans.clear()
        execution = self.service.submit(sql, snapshot_id,
                                        materialize=materialize)
        while not execution.done:
            assert self.env.sim.step()
        self.outcomes.append(outcome(execution))
        return execution


def outcome(execution):
    result = execution.result
    return (execution.sql, repr(execution.error),
            None if result is None else sorted(map(repr, result.rows)),
            *(getattr(execution, name) for name in FIELDS))


def both(step):
    """Run ``step(script)`` on a reusing and a fresh script; their
    outcomes must agree.  Returns the reusing script."""
    reusing, fresh = Script(fresh=False), Script(fresh=True)
    for script in (reusing, fresh):
        step(script)
    assert reusing.outcomes == fresh.outcomes
    assert reusing.service.snapshot_plans_reused > 0
    return reusing


def test_plans_are_reused_across_statements_and_executions():
    script = both(lambda script: (script.queries(), script.queries()))
    service = script.service
    # Three nodes, one set of plans per table and fragment: Queries 3
    # and 4 push equal fragments (one projection) and share theirs, each
    # other materialised statement pushes its own, and the pure-load
    # reads push none, so all of them share theirs.
    assert service.snapshot_plans_built == 3 * ((3 + 1) + (4 + 1))
    assert service.snapshot_plans_reused == \
        2 * 3 * (2 * 4 + 2 * 4 + 2) - service.snapshot_plans_built


def index_and_sketch(script):
    script.queries()
    ssid = script.env.store.committed_ssid
    script.explained = [script.service.explain(INDEXED)]
    script.env.store.create_index("snapshot_orderstate", "orderState",
                                  "hash")
    script.explained.append(script.service.explain(INDEXED))
    script.queries(ssid)
    script.env.store.create_sketch("snapshot_orderinfo", "deliveryZone",
                                   "hll")
    script.queries(ssid)
    assert script.env.store.committed_ssid == ssid


def test_an_index_created_on_a_read_version_engages_at_once():
    script = both(index_and_sketch)
    before, after = script.explained
    assert "full scan (no usable index)" in before
    assert "index probe on 'orderState'" in after
    probed = [outcome[0] for outcome in script.outcomes
              if outcome[3 + COUNTERS.index("index_probes")]]
    assert probed == [INDEXED, INDEXED]  # after each DDL statement


def kill_and_restart(script):
    script.queries()
    env = script.env
    victim = 2
    execution = script.service.submit(QUERY_3)
    env.run_for(2.5)  # its scans in flight on the victim
    env.cluster.kill_node(victim)
    while not execution.done:
        assert env.sim.step()
    script.outcomes.append(outcome(execution))
    script.queries()
    env.cluster.restart_node(victim)
    script.queries()
    env.run_for(2 * CHECKPOINT_MS)
    script.queries()


def test_plans_follow_a_node_kill_and_restart():
    script = both(kill_and_restart)
    killed = script.outcomes[2 * len(STATEMENTS)]
    assert killed[0] == QUERY_3
    assert killed[3 + FIELDS.index("retries")] == 1


def test_a_pruned_versions_plans_are_released():
    script = Script(fresh=False)
    script.queries()
    env, service = script.env, script.service
    first = env.store.committed_ssid
    pinned = INDEXED + f" AND ssid = {first}"
    script.run(pinned)
    plans = [plan for key in service.snapshot_plans._data
             for plan in service.snapshot_plans._data[key].values()]
    assert plans
    refs = [weakref.ref(plan) for plan in plans]
    del plans
    env.run_for(3 * CHECKPOINT_MS)
    assert first not in env.store.available_ssids()
    # A plan of a dropped version is never served, even before it goes.
    with pytest.raises(SnapshotNotFoundError):
        service.explain(pinned)
    script.queries()
    assert all(first not in key[1] for key in service.snapshot_plans._data)
    gc.collect()
    assert not any(ref() for ref in refs)
    assert len(service.snapshot_plans) == (3 + 1) + (4 + 1)


def test_reuse_matches_fresh_plans_across_prunes():
    def across_prunes(script):
        for _ in range(3):
            script.queries()
            script.env.run_for(CHECKPOINT_MS)

    both(across_prunes)

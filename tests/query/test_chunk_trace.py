"""Golden trace of the scan chunk chain, and its frame budget.

A checkpointing q-commerce job runs beside two clients rotating the
paper's four snapshot queries, plus one live scan, one pushed top-k,
one index read and one join.  Every execution's latency and scan bill
and every store server's busy and wait time hash to a constant: the
simulator may group the events it runs, but every virtual time, bill
and count must come out bit for bit as before, and in the same order
wherever float additions accumulate.
"""

import hashlib
import sys
from collections import Counter

import pytest

from repro import (ClusterConfig, Environment, QueryService, SQueryBackend,
                   SQueryConfig)
from repro.cluster.partition import stable_hash
from repro.config import SanitizerConfig
from repro.query.service import _Attempt
from repro.simtime import Simulator
from repro.workloads.qcommerce import (ALL_QUERIES, build_qcommerce_job,
                                       order_info_for, order_status_for)

ORDERS = 2400

#: The four statements beside the paper's queries.
EXTRA = (
    'SELECT key, orderState FROM "orderstate" WHERE lateTimestamp > 0',
    'SELECT key, lateTimestamp FROM "orderstate" '
    "ORDER BY lateTimestamp DESC LIMIT 5",
    'SELECT key FROM "orderinfo" '
    "WHERE customerLat BETWEEN 52.100 AND 52.104",
    'SELECT orderinfo.deliveryZone, COUNT(*) AS n FROM "orderinfo" '
    'JOIN "orderstate" USING(partitionKey) GROUP BY orderinfo.deliveryZone',
)

#: sha256 of the trace below, recorded before the simulator joined
#: same-time completions into one queue entry.
TRACE_SHA256 = (
    "edd5b4d83690be635db923e18044f0357bb39b3f1f360c8828ad1e730a28e013"
)


def checkpointing_job(sanitizers=None):
    """Three nodes running the q-commerce job over preloaded orders,
    one checkpoint committed."""
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=1,
                      query_workers_per_node=2, backup_count=1,
                      partition_count=32),
        seed=5, sanitizers=sanitizers,
    )
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    job = build_qcommerce_job(env, backend, orders=ORDERS,
                              events_per_s=2000.0,
                              checkpoint_interval_ms=200.0, parallelism=3,
                              seed=5)
    for vertex, make in (
        ("orderinfo", order_info_for),
        ("orderstate",
         lambda key: order_status_for(key, key % 8, late=key % 4 == 0)),
    ):
        instances = job.instances_of(vertex)
        for key in range(ORDERS):
            instances[stable_hash(key) % len(instances)] \
                .operator.state.put(key, make(key))
    env.store.create_index("orderinfo", "customerLat", "sorted")
    job.start()
    env.run_for(300.0)
    return env


def run_scenario():
    env = checkpointing_job()
    service = QueryService(env)
    done = []
    issued = [0]
    stopped = [False]

    def issue():
        if stopped[0]:
            return
        sql = ALL_QUERIES[issued[0] % len(ALL_QUERIES)]
        issued[0] += 1

        def on_done(execution):
            done.append(execution)
            issue()

        service.submit(sql, on_done=on_done)

    issue()
    issue()
    for sql in EXTRA:
        service.submit(sql, on_done=done.append)
    env.run_for(400.0)
    stopped[0] = True
    env.run_for(300.0)
    return env, sorted(done, key=lambda execution: execution.qid)


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


def test_scenario_covers_every_read(scenario):
    _env, executions = scenario
    assert all(execution.error is None for execution in executions)
    by_sql = {execution.sql: execution for execution in executions}
    assert len(executions) > 100
    assert {by_sql[sql].result is not None for sql in EXTRA} == {True}
    assert by_sql[EXTRA[2]].index_probes > 0
    assert len(by_sql[EXTRA[1]].result.rows) == 5
    # A snapshot query reads two tables on three nodes, four chunks each.
    assert max(execution.batches_evaluated
               for execution in executions) >= 2 * 3 * 4


def test_trace_matches_the_recorded_hash(scenario):
    env, executions = scenario
    trace = [
        (execution.qid, execution.latency_ms, execution.scan_ms_billed,
         execution.entries_billed, execution.batches_evaluated,
         execution.result.rows)
        for execution in executions
    ]
    servers = [
        (server.jobs_served, server.total_busy_ms, server.total_wait_ms)
        for node in env.cluster.nodes for server in node.store_servers
    ]
    digest = hashlib.sha256(repr((trace, servers)).encode()).hexdigest()
    assert digest == TRACE_SHA256, digest


def test_a_chunk_costs_at_most_two_frames_beside_its_batch_callback():
    """Per event the loop fires, the Python frames it enters; a run of
    chunk steps is one ``_Attempt._advance`` call over its shard
    records, and each step in it costs ``Server.submit`` and
    ``Simulator.call_batched`` (three frames when each chunk was a
    closure of its own, eight before the chain became one closure),
    measured without the sanitizers' wrapper around ``submit``."""
    env = checkpointing_job(SanitizerConfig(enabled=False))
    service = QueryService(env)
    execution = service.submit('SELECT COUNT(*) AS n FROM '
                               '"snapshot_orderstate"')
    events = []
    drain = Simulator._drain.__code__
    advance = _Attempt._advance.__code__

    def profiler(frame, event, _arg):
        if event != "call":
            return
        if frame.f_back is not None and frame.f_back.f_code is drain:
            steps = (len(frame.f_locals["shards"])
                     if frame.f_code is advance else 0)
            events.append((steps, Counter()))
        if events:
            events[-1][1][frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        env.run_for(100.0)
    finally:
        sys.setprofile(previous)
    assert execution.done and execution.error is None
    # The first chunk runs inside the dispatch, the last ships the read.
    batches = [(steps, calls) for steps, calls in events
               if steps and not calls["_shard_read"]]
    assert sum(steps for steps, _ in batches) \
        >= execution.batches_evaluated - 3 > 3
    for _steps, calls in batches:  # Hypothesis, when loaded, times GC
        del calls["gc_callback"]
    assert all(sum(calls.values()) - 1 <= 2 * steps
               for steps, calls in batches)

"""Golden trace of the record path.

NEXMark query 6 on the S-QUERY backend with checkpoints, beside a
repeatable-read client whose reads hold hot keys (so mirror writes
queue for their key locks), through a node kill and the rollback
recovery after it.  Every sink latency, every node's pool busy and
wait time, the lock, network and event counts hash to a constant: the
record path may resolve what deployment fixes once instead of per
record, but every virtual time, bill and count must come out bit for
bit as before, and in the same order wherever float additions
accumulate.
"""

import hashlib

from repro import (ClusterConfig, Environment, QueryService, SQueryBackend,
                   SQueryConfig)
from repro.workloads.nexmark import build_query6_job

#: sha256 of the trace below, recorded while routing, costs, random
#: streams and the mirror's lock were still resolved per record.
TRACE_SHA256 = (
    "4addf4d871fcc9efeb4a489747f1e60381677c0d98d4a622e69bc0f504dae2ef"
)

#: Point reads of hot sellers and a whole-table read, in rotation.
READS = (
    'SELECT * FROM "q6" WHERE key = 7',
    'SELECT COUNT(*) AS n, SUM(average) AS total FROM "q6"',
    'SELECT * FROM "q6" WHERE key = 11',
)


def run_scenario():
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=1,
                      query_workers_per_node=2, backup_count=1),
        seed=5,
    )
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    job = build_query6_job(env, backend, rate_per_s=20_000.0, sellers=40,
                           checkpoint_interval_ms=100.0, parallelism=3,
                           seed=5)
    service = QueryService(env, repeatable_read=True)
    done = []
    stopped = [False]

    def issue():
        if not stopped[0]:
            service.submit(READS[len(done) % len(READS)], on_done=landed)

    def landed(execution):
        done.append(execution)
        issue()

    job.start()
    issue()
    env.run_for(250.0)
    env.cluster.kill_node(2)
    env.run_for(250.0)
    stopped[0] = True
    env.run_for(100.0)
    return env, job, done


def test_trace_matches_the_recorded_hash():
    env, job, done = run_scenario()
    locks = env.store.locks
    network = env.cluster.network
    # The scenario reaches every path the trace is meant to pin.
    assert job.metrics.recoveries == 1
    assert job.coordinator.completed >= 2
    assert locks.contentions > 0 and locks.held_count == 0
    assert len(done) > 20
    pools = [
        (pool.jobs_served, pool.total_busy_ms, pool.total_wait_ms)
        for node in env.cluster.nodes
        for pool in (node.processing_pool, node.query_pool)
    ]
    trace = (
        job.metrics.sink_latencies, pools,
        (locks.acquisitions, locks.contentions),
        (network.messages_sent, network.bytes_sent),
        env.sim.processed_events,
    )
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert digest == TRACE_SHA256, digest

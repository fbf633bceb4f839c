"""Virtual time must not depend on what ran earlier in the process.

A fresh environment has to bill its first fragment compilation whether
or not another environment compiled the same fragment shape before it:
the compiled-fragment cache (and with it ``predicate_compile_ms`` and
the ``predicates_compiled`` / ``compile_cache_hits`` counters) belongs
to the query service, not to the process.  Query ids belong to the
environment: every run numbers its queries from 1, and two services of
one environment never hand out the same id (their network channels are
keyed by it).
"""

import random

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.state.live import LiveStateTable

SQL = ('SELECT l.partitionKey, r.b FROM "l" AS l '
       'JOIN "r" AS r ON l.fk = r.rk WHERE l.a < 10 '
       "ORDER BY l.partitionKey, r.partitionKey")


def run_shuffle_join():
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1),
                      seed=7)
    rng = random.Random(11)
    left = env.store.create_map("l")
    env.store.register_live_table("l", LiveStateTable(left))
    right = env.store.create_map("r")
    env.store.register_live_table("r", LiveStateTable(right))
    for k in range(400):
        left.put(k, {"fk": rng.randrange(0, 350),
                     "a": rng.randrange(0, 100)})
    for k in range(500):
        right.put(k, {"rk": k % 350, "b": rng.randrange(0, 100)})
    service = QueryService(env)
    first = service.execute(SQL)
    again = service.execute(SQL)
    other = QueryService(env).execute(SQL)
    assert first.join_strategies == ["shuffle"]
    # The repeat parsed through the service's statement cache, which
    # (like the fragment cache) starts empty with every service.
    assert service.statement_cache.hits == 1
    # What ``perf``'s ``virt_digest`` hashes: virtual latencies, the
    # clock, the event count, every pool's busy time and the counters.
    pools = [
        (node.query_pool.total_busy_ms,
         sum(server.total_busy_ms for server in node.store_servers))
        for node in env.cluster.nodes
    ]
    return [
        (execution.qid, execution.latency_ms, execution.scan_ms_billed,
         execution.entries_scanned, execution.bytes_shipped,
         execution.predicates_compiled, execution.compile_cache_hits,
         execution.result.rows)
        for execution in (first, again, other)
    ], (env.sim.now, env.sim.processed_events, pools)


def test_same_seeded_run_twice_in_one_process_is_identical():
    once = run_shuffle_join()
    twice = run_shuffle_join()
    assert once == twice
    executions, _clock = once
    # Ids restart with the environment and are shared by its services.
    assert [execution[0] for execution in executions] == [1, 2, 3]
    # The cache still works inside one service: the first execution
    # compiled, the repeat was served from the cache.
    (*_, compiled, hits, _), (*_, recompiled, rehits, _), _ = executions
    assert compiled > 0 and hits < rehits and recompiled == 0

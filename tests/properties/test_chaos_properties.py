"""Seeded chaos property test: random kills/restarts under query load.

For each fixed seed, a four-node cluster runs the standard average job
while the harness injects random node kills (each later restarted) and
a mixed stream of live, snapshot, and repeatable-read queries fires
throughout.  Whatever interleaving the seed produces, the end state
must satisfy the chaos invariants: every query terminated (result or
clean error) within the watchdog bound, the lock table drained, and no
in-flight bookkeeping survived.  The job is bounded, and on every
snapshot backend its final state must equal a failure-free run's
(exactly-once through every rollback).

The seeds are fixed — not drawn per run — so CI is deterministic and a
failure reproduces exactly.
"""

from functools import cache

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import ClusterConfig, CostModel, QueryRetryPolicy
from repro.errors import QueryError
from repro.query import QueryService

from ..conftest import (
    SNAPSHOT_BACKENDS as BACKENDS, build_average_job, make_squery_backend,
)

QUERY_TIMEOUT_MS = 2_000.0

SQL_MIX = [
    'SELECT COUNT(*) AS n FROM "average"',
    'SELECT key, count FROM "average" WHERE count > 1',
    'SELECT COUNT(*) AS n FROM "snapshot_average"',
    'SELECT * FROM "average" WHERE key = 3',
]

HORIZON_MS = 4_000.0 + QUERY_TIMEOUT_MS + 1_000.0


def start_job(kind):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=2),
        costs=CostModel(scan_entry_ms=0.02),
    )
    backend = make_squery_backend(env, **BACKENDS[kind])
    job = build_average_job(env, backend=backend, rate=4000, keys=300,
                            parallelism=4, checkpoint_interval_ms=500,
                            limit_per_instance=2_000)
    job.start()
    return env, job


@cache
def failure_free_state(kind):
    env, job = start_job(kind)
    env.run_until(HORIZON_MS)
    return job.operator_state("average")


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_random_chaos_preserves_invariants(seed, kind):
    env, job = start_job(kind)
    env.run_until(1_500)  # at least one committed snapshot

    services = [
        QueryService(env, retry_policy=QueryRetryPolicy(
            query_timeout_ms=QUERY_TIMEOUT_MS)),
        QueryService(env, repeatable_read=True,
                     retry_policy=QueryRetryPolicy(
                         query_timeout_ms=QUERY_TIMEOUT_MS)),
    ]

    chaos = ChaosHarness(env, seed=seed)
    chaos.plan_random(horizon_ms=4_000.0, kills=3, restart_after_ms=400.0)

    executions = []

    def fire(index: int) -> None:
        service = services[index % len(services)]
        sql = SQL_MIX[index % len(SQL_MIX)]
        try:
            executions.append(service.submit(sql))
        except QueryError:
            pass  # "no surviving nodes" is a legal rejection

    for index in range(24):
        env.sim.schedule_at(1_500.0 + index * 100.0, fire, index)

    # Run past the chaos horizon plus a full watchdog period: by then
    # every query must have reached a terminal state.
    env.run_until(HORIZON_MS)

    assert executions, "workload generated no queries"
    assert chaos.kills_executed >= 1
    assert_invariants(env, executions)
    assert job.all_sources_exhausted()
    assert job.operator_state("average") == failure_free_state(kind)

    for execution in executions:
        assert execution.done
        assert execution.latency_ms <= QUERY_TIMEOUT_MS + 1e-6
        if execution.error is not None:
            assert isinstance(execution.error, QueryError)

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
failure reproduces exactly.  Random kill times almost never land in a
checkpoint's write window (about 3 ms of every 500), so one more case
per backend kills a node 1 ms into three checkpoints a second apart.
It runs a sparse job: at 300 keys and 4,000 events/s every key is
rewritten in every checkpoint interval, which would hide a recovery
that restores state through an aborted checkpoint's writes.
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


#: The window case's job: few writes per key, so a key written only by
#: an aborted checkpoint keeps its stale value in later versions.
SPARSE_JOB = {"keys": 4_000, "rate": 800, "limit_per_instance": 600}


def start_job(kind, keys=300, rate=4000, limit_per_instance=2_000):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=2),
        costs=CostModel(scan_entry_ms=0.02),
    )
    backend = make_squery_backend(env, **BACKENDS[kind])
    job = build_average_job(env, backend=backend, rate=rate, keys=keys,
                            parallelism=4, checkpoint_interval_ms=500,
                            limit_per_instance=limit_per_instance)
    job.start()
    return env, job


@cache
def failure_free_state(kind, **job_kwargs):
    env, job = start_job(kind, **job_kwargs)
    env.run_until(HORIZON_MS)
    return job.operator_state("average")


#: ``(at_ms, node)``: 1 ms into the checkpoints begun at 1.5, 2.5 and
#: 3.5 s (the job checkpoints every 500 ms), each node restarted 400 ms
#: later.
WINDOW_KILLS = [(500.0 * k + 1.0, node)
                for k, node in ((3, 1), (5, 2), (7, 3))]


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_random_chaos_preserves_invariants(seed, kind):
    run_chaos(kind, seed, lambda chaos: chaos.plan_random(
        horizon_ms=4_000.0, kills=3, restart_after_ms=400.0))


@pytest.mark.parametrize("kind", BACKENDS)
def test_kills_inside_checkpoint_windows_preserve_invariants(kind):
    def in_windows(chaos):
        for at_ms, node in WINDOW_KILLS:
            chaos.schedule_kill(at_ms, node)
            chaos.schedule_restart(at_ms + 400.0, node)

    chaos = run_chaos(kind, None, in_windows, **SPARSE_JOB)
    assert chaos.kills_executed == len(WINDOW_KILLS)


def run_chaos(kind, seed, plan, **job_kwargs):
    """Fire the query mix at the job on backend ``kind`` while the
    faults ``plan(chaos)`` schedules strike, then check the invariants
    and the final state against a failure-free run's; returns the
    harness."""
    env, job = start_job(kind, **job_kwargs)
    env.run_until(1_500)  # at least one committed snapshot

    services = [
        QueryService(env, retry_policy=QueryRetryPolicy(
            query_timeout_ms=QUERY_TIMEOUT_MS)),
        QueryService(env, repeatable_read=True,
                     retry_policy=QueryRetryPolicy(
                         query_timeout_ms=QUERY_TIMEOUT_MS)),
    ]

    chaos = ChaosHarness(env, seed=seed)
    plan(chaos)

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
    assert job.operator_state("average") == \
        failure_free_state(kind, **job_kwargs)

    for execution in executions:
        assert execution.done
        assert execution.latency_ms <= QUERY_TIMEOUT_MS + 1e-6
        if execution.error is not None:
            assert isinstance(execution.error, QueryError)
    return chaos

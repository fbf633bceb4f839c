#!/usr/bin/env python3
"""Chaos: querying a stream processor's state while its nodes die.

Runs the paper's running example (Fig. 2) on a four-node cluster,
subjects the cluster to scripted *and* seeded-random node kills and
restarts, and keeps firing live and snapshot SQL queries the whole
time.  The failure-aware query path (§IV interplay) either reschedules
the interrupted scans onto survivors or fails fast — no query ever
hangs — and the run ends by checking the harness invariants: no
in-flight queries, no leaked locks, and snapshot results bit-identical
before and after a kill.

Run:  python examples/chaos_queries.py
"""

from dataclasses import dataclass

from repro import (
    ChaosHarness,
    ClusterConfig,
    CostModel,
    Environment,
    Job,
    JobConfig,
    KeyedAggregateOperator,
    Pipeline,
    QueryAbortedError,
    QueryRetryPolicy,
    QueryService,
    SinkOperator,
    SQueryBackend,
    SQueryConfig,
    assert_invariants,
    collect_report,
    format_report,
    snapshot_fingerprint,
)
from repro.dataflow.sources import CallableSource


@dataclass
class Average:
    """The operator state of Fig. 2: a count and a running total."""

    count: int
    total: float


def accumulate(state: Average | None, value: float) -> Average:
    if state is None:
        return Average(1, value)
    return Average(state.count + 1, state.total + value)


def build_job(env: Environment) -> Job:
    # Retention is raised so the reference snapshot taken before the
    # chaos window is still queryable after it (default keeps only 2).
    backend = SQueryBackend(env.cluster, env.store,
                            SQueryConfig(retained_snapshots=64))
    pipeline = Pipeline()
    pipeline.add_source(
        "nums",
        CallableSource(lambda i, seq: ((i * 31 + seq) % 400, float(seq % 9)),
                       4_000.0),
    )
    pipeline.add_operator(
        "average",
        lambda: KeyedAggregateOperator(
            accumulate, lambda k, s: s.total / s.count
        ),
    )
    pipeline.add_operator("sink", SinkOperator)
    pipeline.connect("nums", "average")
    pipeline.connect("average", "sink")
    return Job(env, pipeline,
               JobConfig(checkpoint_interval_ms=500, parallelism=4),
               backend)


def main() -> None:
    # Slower per-entry scans stretch the scan phase to a few virtual ms,
    # so the scripted kill below reliably lands mid-scan.
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=2),
        CostModel(scan_entry_ms=0.02),
    )
    job = build_job(env)
    job.start()
    env.run_for(1_200)  # a couple of committed snapshots

    service = QueryService(
        env, retry_policy=QueryRetryPolicy(max_retries=2,
                                           retry_backoff_ms=5.0,
                                           query_timeout_ms=2_000.0),
    )

    # Reference snapshot result on the healthy cluster.
    ssid = env.store.committed_ssid
    before = service.execute(
        f'SELECT key, count, total FROM "snapshot_average" '
        f"WHERE ssid = {ssid}"
    )
    fingerprint_before = snapshot_fingerprint(before.result)
    print(f"snapshot {ssid}: {len(before.result)} rows, "
          f"fingerprint {fingerprint_before[:16]}…")

    # Scripted chaos: kill node 3 in ~1 ms (queries below will be mid
    # scan), bring it back later; plus seeded-random kills/restarts.
    chaos = ChaosHarness(env, seed=29)
    chaos.schedule_kill(env.now + 2.0, node_id=3)
    chaos.schedule_restart(env.now + 400.0, node_id=3)
    chaos.plan_random(horizon_ms=env.now + 1_500.0, kills=2,
                      restart_after_ms=250.0)

    # Fire a stream of queries across the chaos window.
    executions = []

    def submit_wave(wave: int) -> None:
        executions.append(service.submit('SELECT * FROM "average"'))
        executions.append(service.submit(
            f'SELECT key, count FROM "snapshot_average" WHERE ssid = {ssid}'
        ))

    for wave in range(8):
        env.sim.schedule_at(env.now + wave * 200.0, submit_wave, wave)
    env.run_for(4_500)  # past the chaos horizon + query timeout

    completed = [e for e in executions if e.error is None]
    aborted = [e for e in executions if isinstance(e.error,
                                                   QueryAbortedError)]
    rescheduled = sum(1 for e in executions if e.retries)
    print(f"\n{len(executions)} queries across the chaos window: "
          f"{len(completed)} completed ({rescheduled} after rescheduling "
          f"lost scans), {len(aborted)} aborted cleanly")
    print(chaos.describe())

    # Snapshot determinism: the same committed snapshot, re-read after
    # kills and recoveries, is bit-identical.
    after = service.execute(
        f'SELECT key, count, total FROM "snapshot_average" '
        f"WHERE ssid = {ssid}"
    )
    same = snapshot_fingerprint(after.result) == fingerprint_before
    print(f"\nsnapshot {ssid} re-read after chaos: "
          f"{'bit-identical' if same else 'MISMATCH'}")
    assert same, "snapshot query diverged across failures"

    # The clean-system invariants: nothing hung, nothing leaked.
    assert_invariants(env, executions)
    print("invariants hold: no hung queries, no leaked locks")

    print()
    print(format_report(collect_report(env)))


if __name__ == "__main__":
    main()
